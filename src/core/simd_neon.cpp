/**
 * @file
 * NEON (aarch64) implementations of the SimdKernels table.
 *
 * NEON is architecturally mandatory on aarch64, so unlike the AVX2
 * translation unit this one needs no extra -m flag — CMake only adds
 * it when targeting aarch64, and the dispatcher treats compiled-in as
 * executable. Lanes are 2 x double wide, and the 4-logical-lane
 * reduction contract is implemented as two vector accumulators.
 * The piecewise-linear GELU kernel reuses the scalar implementation —
 * there is no NEON gather to vectorize the table reads with.
 */

#include "core/simd.h"

#if !defined(__aarch64__)
#error "simd_neon.cpp is aarch64-only"
#endif

#include <arm_neon.h>

namespace figlut {
namespace simd_detail {

// Scalar contract implementations (simd.cpp) reused for table-lookup
// kernels that NEON cannot accelerate, and for the epilogue folds,
// which have no NEON version yet: none has been built and run on an
// aarch64 toolchain against SimdEpilogue.EveryIsaMatchesScalarTable.
void geluLutFlatScalar(double *out, const double *v, std::size_t n,
                       const GeluLutTable &t);
void foldIntPlaneFp32Scalar(double *acc, const double *alpha,
                            const std::int64_t *psum, double scale,
                            std::size_t n);
void foldOffsetFp32Scalar(double *acc, const double *off, double sumx,
                          std::size_t n);
// The attention head body at the baseline ISA: on aarch64 its generic
// vectors already compile to NEON.
void attentionHeadScalar(const AttentionHead &head);
// The multi-column span of ISAs without a blocked kernel.
void accumIntSpanColsEach(decltype(SimdKernels::accumIntSpan) span,
                          std::int64_t *const *psum,
                          const std::int64_t *const *lut,
                          std::size_t lutStride, const std::uint32_t *keys,
                          std::size_t keyStride, std::size_t chunks,
                          std::size_t n, std::size_t cols);

namespace {

/**
 * The span kernel keeps two 2-lane vectors (4 rows) of partial sums
 * in registers across the whole chunk walk; LUT reads are staged
 * through a small array since NEON has no gather. Per-row order is
 * chunk-sequential exactly as in the scalar contract.
 */

void
accumIntSpanNeon(std::int64_t *psum, const std::int64_t *lut,
                 std::size_t lutStride, const std::uint32_t *keys,
                 std::size_t keyStride, std::size_t chunks,
                 std::size_t n)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        int64x2_t p0 = vld1q_s64(psum + r);
        int64x2_t p1 = vld1q_s64(psum + r + 2);
        const std::int64_t *l = lut;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::int64_t s0[2] = {l[k[0]], l[k[1]]};
            const std::int64_t s1[2] = {l[k[2]], l[k[3]]};
            p0 = vaddq_s64(p0, vld1q_s64(s0));
            p1 = vaddq_s64(p1, vld1q_s64(s1));
            l += lutStride;
            k += keyStride;
        }
        vst1q_s64(psum + r, p0);
        vst1q_s64(psum + r + 2, p1);
    }
    for (; r < n; ++r) {
        std::int64_t p = psum[r];
        const std::int64_t *l = lut;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            p += l[*k];
            l += lutStride;
            k += keyStride;
        }
        psum[r] = p;
    }
}

void
accumIntSpanColsNeon(std::int64_t *const *psum,
                     const std::int64_t *const *lut, std::size_t lutStride,
                     const std::uint32_t *keys, std::size_t keyStride,
                     std::size_t chunks, std::size_t n, std::size_t cols)
{
    accumIntSpanColsEach(accumIntSpanNeon, psum, lut, lutStride, keys,
                         keyStride, chunks, n, cols);
}

void
addFlatNeon(double *out, const double *a, const double *b,
            std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_f64(out + i,
                  vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    for (; i < n; ++i)
        out[i] = a[i] + b[i];
}

void
divFlatNeon(double *v, double denom, std::size_t n)
{
    const float64x2_t d = vdupq_n_f64(denom);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_f64(v + i, vdivq_f64(vld1q_f64(v + i), d));
    for (; i < n; ++i)
        v[i] = v[i] / denom;
}

double
maxFlatNeon(const double *v, std::size_t n)
{
    double mx;
    std::size_t i;
    if (n >= 2) {
        float64x2_t acc = vld1q_f64(v);
        for (i = 2; i + 2 <= n; i += 2)
            acc = vmaxq_f64(acc, vld1q_f64(v + i));
        const double l0 = vgetq_lane_f64(acc, 0);
        const double l1 = vgetq_lane_f64(acc, 1);
        mx = l0 < l1 ? l1 : l0;
    } else {
        mx = v[0];
        i = 1;
    }
    for (; i < n; ++i)
        mx = mx < v[i] ? v[i] : mx;
    return mx;
}

double
sumLanesNeon(const double *v, std::size_t n)
{
    float64x2_t acc01 = vdupq_n_f64(0.0);
    float64x2_t acc23 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc01 = vaddq_f64(acc01, vld1q_f64(v + i));
        acc23 = vaddq_f64(acc23, vld1q_f64(v + i + 2));
    }
    double lane[4] = {vgetq_lane_f64(acc01, 0),
                      vgetq_lane_f64(acc01, 1),
                      vgetq_lane_f64(acc23, 0),
                      vgetq_lane_f64(acc23, 1)};
    for (std::size_t l = 0; i < n; ++i, ++l)
        lane[l] += v[i];
    return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

double
sumSqDevLanesNeon(const double *v, double mean, std::size_t n)
{
    const float64x2_t m = vdupq_n_f64(mean);
    float64x2_t acc01 = vdupq_n_f64(0.0);
    float64x2_t acc23 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float64x2_t d0 = vsubq_f64(vld1q_f64(v + i), m);
        const float64x2_t d1 = vsubq_f64(vld1q_f64(v + i + 2), m);
        acc01 = vaddq_f64(acc01, vmulq_f64(d0, d0));
        acc23 = vaddq_f64(acc23, vmulq_f64(d1, d1));
    }
    double lane[4] = {vgetq_lane_f64(acc01, 0),
                      vgetq_lane_f64(acc01, 1),
                      vgetq_lane_f64(acc23, 0),
                      vgetq_lane_f64(acc23, 1)};
    for (std::size_t l = 0; i < n; ++i, ++l) {
        const double d = v[i] - mean;
        lane[l] += d * d;
    }
    return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

void
normalizeFlatNeon(double *out, const double *v, double mean,
                  double invStd, std::size_t n)
{
    const float64x2_t m = vdupq_n_f64(mean);
    const float64x2_t s = vdupq_n_f64(invStd);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_f64(out + i,
                  vmulq_f64(vsubq_f64(vld1q_f64(v + i), m), s));
    for (; i < n; ++i)
        out[i] = (v[i] - mean) * invStd;
}

const SimdKernels kNeonKernels = {
    SimdIsa::Neon,          accumIntSpanNeon,
    accumIntSpanColsNeon,   foldIntPlaneFp32Scalar,
    foldOffsetFp32Scalar,   addFlatNeon,
    divFlatNeon,            maxFlatNeon,
    sumLanesNeon,           sumSqDevLanesNeon,
    normalizeFlatNeon,      geluLutFlatScalar,
    attentionHeadScalar,
};

} // namespace

const SimdKernels &
neonKernels()
{
    return kNeonKernels;
}

} // namespace simd_detail
} // namespace figlut
