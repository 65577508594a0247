/**
 * @file
 * AVX2 implementations of the SimdKernels table.
 *
 * This translation unit is compiled with -mavx2 (file-level flag set
 * by src/CMakeLists.txt when FIGLUT_SIMD_AVX2 is ON) while the rest
 * of the library stays on the baseline ISA; nothing here runs unless
 * the runtime dispatcher confirmed CPUID AVX2 support, so the binary
 * remains safe on non-AVX2 hosts.
 *
 * Every kernel reproduces the scalar contract of simd.cpp bit for
 * bit: vector lanes hold independent rows/elements (or the fixed
 * strided reduction lanes), the FpArith::Fp32 rounding is the
 * VCVTPD2PS/VCVTPS2PD round-trip (IEEE round-to-nearest-even to
 * binary32, the same rounding fpRound() applies), the epilogue
 * fold's int64 -> double conversion is exact (a bias trick below
 * 2^51, the scalar fold beyond), and no multiply-add is fused
 * (-ffp-contract=off build-wide, and only explicit mul/add
 * intrinsics here).
 */

#include "core/simd.h"

#if !defined(__AVX2__)
#error "simd_avx2.cpp must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include "core/attention_kernel.h"

namespace figlut {
namespace simd_detail {

// Scalar contract implementations (simd.cpp): the epilogue folds run
// them on tail rows and on int64 lanes outside the exact conversion.
void foldIntPlaneFp32Scalar(double *acc, const double *alpha,
                            const std::int64_t *psum, double scale,
                            std::size_t n);
void foldOffsetFp32Scalar(double *acc, const double *off, double sumx,
                          std::size_t n);
// The multi-column span of ISAs without a blocked kernel (simd.cpp).
void accumIntSpanColsEach(decltype(SimdKernels::accumIntSpan) span,
                          std::int64_t *const *psum,
                          const std::int64_t *const *lut,
                          std::size_t lutStride, const std::uint32_t *keys,
                          std::size_t keyStride, std::size_t chunks,
                          std::size_t n, std::size_t cols);

namespace {

/**
 * The span kernel keeps two row-vectors (8 rows) of partial sums in
 * registers across the whole chunk walk: the two accumulation chains
 * are independent, so the gather latency of one overlaps the
 * other, and psum traffic drops from per-chunk load+store to one
 * load+store per span. Per-row accumulation order is chunk-sequential
 * exactly as in the scalar contract.
 */

void
accumIntSpanAvx2(std::int64_t *psum, const std::int64_t *lut,
                 std::size_t lutStride, const std::uint32_t *keys,
                 std::size_t keyStride, std::size_t chunks,
                 std::size_t n)
{
    const long long *lutLL = reinterpret_cast<const long long *>(lut);
    std::size_t r = 0;
    for (; r + 8 <= n; r += 8) {
        __m256i p0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(psum + r));
        __m256i p1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(psum + r + 4));
        const long long *l = lutLL;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            const __m128i k0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(k));
            const __m128i k1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(k + 4));
            p0 = _mm256_add_epi64(p0,
                                  _mm256_i32gather_epi64(l, k0, 8));
            p1 = _mm256_add_epi64(p1,
                                  _mm256_i32gather_epi64(l, k1, 8));
            l += lutStride;
            k += keyStride;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(psum + r), p0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(psum + r + 4),
                            p1);
    }
    for (; r + 4 <= n; r += 4) {
        __m256i p0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(psum + r));
        const long long *l = lutLL;
        const std::uint32_t *k = keys + r;
        for (std::size_t c = 0; c < chunks; ++c) {
            const __m128i k0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(k));
            p0 = _mm256_add_epi64(p0,
                                  _mm256_i32gather_epi64(l, k0, 8));
            l += lutStride;
            k += keyStride;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(psum + r), p0);
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
accumIntSpanColsAvx2(std::int64_t *const *psum,
                     const std::int64_t *const *lut, std::size_t lutStride,
                     const std::uint32_t *keys, std::size_t keyStride,
                     std::size_t chunks, std::size_t n, std::size_t cols)
{
    accumIntSpanColsEach(accumIntSpanAvx2, psum, lut, lutStride, keys,
                         keyStride, chunks, n, cols);
}

/** The binary32 round-trip of FpArith::Fp32 (VCVTPD2PS/VCVTPS2PD). */
inline __m256d
roundF32(__m256d v)
{
    return _mm256_cvtps_pd(_mm256_cvtpd_ps(v));
}

/** The int64 -> double conversion is exact below 2^51 in magnitude. */
constexpr long long kExactCvtBound = 1LL << 51;

/** True when every lane lies in [-2^51, 2^51). */
inline bool
inExactCvtRange(__m256i v)
{
    const __m256i biased =
        _mm256_add_epi64(v, _mm256_set1_epi64x(kExactCvtBound));
    const __m256i high = _mm256_srli_epi64(biased, 52);
    return _mm256_testz_si256(high, high) != 0;
}

/**
 * AVX2 has no int64 -> double conversion. For lanes in [-2^51, 2^51),
 * v + bits(2^52 + 2^51) is the bit pattern of the double
 * 2^52 + 2^51 + v, so subtracting 2^52 + 2^51 yields v exactly, which
 * is what static_cast<double> returns for these values.
 */
inline __m256d
int64ToDouble(__m256i v)
{
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);
    return _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_add_epi64(v, _mm256_castpd_si256(magic))),
        magic);
}

void
foldIntPlaneFp32Avx2(double *acc, const double *alpha,
                     const std::int64_t *psum, double scale, std::size_t n)
{
    const __m256d s = _mm256_set1_pd(scale);
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(psum + r));
        if (!inExactCvtRange(v)) {
            foldIntPlaneFp32Scalar(acc + r, alpha + r, psum + r, scale, 4);
            continue;
        }
        const __m256d p = _mm256_mul_pd(int64ToDouble(v), s);
        const __m256d t =
            roundF32(_mm256_mul_pd(_mm256_loadu_pd(alpha + r), p));
        _mm256_storeu_pd(
            acc + r, roundF32(_mm256_add_pd(_mm256_loadu_pd(acc + r), t)));
    }
    foldIntPlaneFp32Scalar(acc + r, alpha + r, psum + r, scale, n - r);
}

void
foldOffsetFp32Avx2(double *acc, const double *off, double sumx,
                   std::size_t n)
{
    const __m256d sx = _mm256_set1_pd(sumx);
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const __m256d t =
            roundF32(_mm256_mul_pd(_mm256_loadu_pd(off + r), sx));
        _mm256_storeu_pd(
            acc + r, roundF32(_mm256_add_pd(_mm256_loadu_pd(acc + r), t)));
    }
    foldOffsetFp32Scalar(acc + r, off + r, sumx, n - r);
}

void
addFlatAvx2(double *out, const double *a, const double *b,
            std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i,
                         _mm256_add_pd(_mm256_loadu_pd(a + i),
                                       _mm256_loadu_pd(b + i)));
    for (; i < n; ++i)
        out[i] = a[i] + b[i];
}

void
divFlatAvx2(double *v, double denom, std::size_t n)
{
    const __m256d d = _mm256_set1_pd(denom);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(v + i,
                         _mm256_div_pd(_mm256_loadu_pd(v + i), d));
    for (; i < n; ++i)
        v[i] = v[i] / denom;
}

double
maxFlatAvx2(const double *v, std::size_t n)
{
    double mx;
    std::size_t i;
    if (n >= 4) {
        __m256d acc = _mm256_loadu_pd(v);
        for (i = 4; i + 4 <= n; i += 4)
            acc = _mm256_max_pd(acc, _mm256_loadu_pd(v + i));
        double lane[4];
        _mm256_storeu_pd(lane, acc);
        mx = lane[0];
        for (int l = 1; l < 4; ++l)
            mx = mx < lane[l] ? lane[l] : mx;
    } else {
        mx = v[0];
        i = 1;
    }
    for (; i < n; ++i)
        mx = mx < v[i] ? v[i] : mx;
    return mx;
}

double
sumLanesAvx2(const double *v, std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
    double lane[4];
    _mm256_storeu_pd(lane, acc);
    for (std::size_t l = 0; i < n; ++i, ++l)
        lane[l] += v[i];
    return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

double
sumSqDevLanesAvx2(const double *v, double mean, std::size_t n)
{
    const __m256d m = _mm256_set1_pd(mean);
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + i), m);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    double lane[4];
    _mm256_storeu_pd(lane, acc);
    for (std::size_t l = 0; i < n; ++i, ++l) {
        const double d = v[i] - mean;
        lane[l] += d * d;
    }
    return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

void
normalizeFlatAvx2(double *out, const double *v, double mean,
                  double invStd, std::size_t n)
{
    const __m256d m = _mm256_set1_pd(mean);
    const __m256d s = _mm256_set1_pd(invStd);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(
            out + i,
            _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(v + i), m),
                          s));
    for (; i < n; ++i)
        out[i] = (v[i] - mean) * invStd;
}

void
geluLutFlatAvx2(double *out, const double *v, std::size_t n,
                const GeluLutTable &t)
{
    const __m256d lo = _mm256_set1_pd(t.lo);
    const __m256d hi = _mm256_set1_pd(t.hi);
    const __m256d invStep = _mm256_set1_pd(t.invStep);
    const __m256d step = _mm256_set1_pd(t.step);
    const __m128i maxIdx = _mm_set1_epi32(t.segments - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_loadu_pd(v + i);
        // Same predicates as the scalar clamp: max(x, lo) keeps x
        // when x > lo (NaN clamps to lo), min keeps cx when cx < hi.
        const __m256d cx =
            _mm256_min_pd(_mm256_max_pd(x, lo), hi);
        const __m256d ti =
            _mm256_mul_pd(_mm256_sub_pd(cx, lo), invStep);
        __m128i idx = _mm256_cvttpd_epi32(ti);
        idx = _mm_min_epi32(idx, maxIdx);
        const __m256d x0 = _mm256_add_pd(
            lo, _mm256_mul_pd(_mm256_cvtepi32_pd(idx), step));
        const __m256d val = _mm256_i32gather_pd(t.value.data(), idx, 8);
        const __m256d slp = _mm256_i32gather_pd(t.slope.data(), idx, 8);
        const __m256d pwl = _mm256_add_pd(
            val, _mm256_mul_pd(_mm256_sub_pd(cx, x0), slp));
        const __m256d tail = _mm256_cmp_pd(x, hi, _CMP_GT_OQ);
        _mm256_storeu_pd(out + i, _mm256_blendv_pd(pwl, x, tail));
    }
    for (; i < n; ++i) {
        const double x = v[i];
        double cx = x > t.lo ? x : t.lo;
        cx = cx < t.hi ? cx : t.hi;
        int idx = static_cast<int>((cx - t.lo) * t.invStep);
        idx = idx < t.segments ? idx : t.segments - 1;
        const double x0 = t.lo + static_cast<double>(idx) * t.step;
        const double pwl =
            t.value[static_cast<std::size_t>(idx)] +
            (cx - x0) * t.slope[static_cast<std::size_t>(idx)];
        out[i] = x > t.hi ? x : pwl;
    }
}

void
attentionHeadAvx2(const AttentionHead &head)
{
    attentionHeadBody(head);
}

const SimdKernels kAvx2Kernels = {
    SimdIsa::Avx2,        accumIntSpanAvx2,
    accumIntSpanColsAvx2, foldIntPlaneFp32Avx2,
    foldOffsetFp32Avx2,   addFlatAvx2,
    divFlatAvx2,          maxFlatAvx2,
    sumLanesAvx2,         sumSqDevLanesAvx2,
    normalizeFlatAvx2,    geluLutFlatAvx2,
    attentionHeadAvx2,
};

} // namespace

const SimdKernels &
avx2Kernels()
{
    return kAvx2Kernels;
}

} // namespace simd_detail
} // namespace figlut
