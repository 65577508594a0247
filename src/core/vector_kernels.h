/**
 * @file
 * The body of the flat SimdKernels entries (the epilogue folds, the
 * layer norm reductions and normalize, the residual add and the
 * piecewise-linear GELU), compiled once per ISA: each vector kernel
 * unit (simd_avx2.cpp, simd_avx512.cpp, simd_neon.cpp) includes this
 * header under its own target flags and points its table at the
 * bodies. The native vector type defined here is also the one
 * core/attention_kernel.h is written in. Internal to those units.
 *
 * Everything here has internal linkage, and the bodies call no inline
 * library template, so the per-ISA copies can never be merged at link
 * time (a merged copy could run AVX-512 code on a baseline host).
 *
 * Bit identity with the scalar table of simd.cpp, which stays plain
 * loops and is the spec:
 *  - lanes only hold independent elements, and tails run the scalar
 *    contract's operations in its order;
 *  - sumLanes and sumSqDevLanes accumulate in a 4-wide vector on every
 *    width, so the lanes are the contract's kSimdReduceLanes lanes;
 *  - the folds' binary32 rounding is the float convert pair, and their
 *    int64 -> double conversion is exact below 2^51 in magnitude; a
 *    vector holding a larger psum, and the tail rows, go to the scalar
 *    table's fold out of line, never to an inlined scalar copy, which
 *    GCC 12.2's SLP vectorizer can merge into a lane-by-lane round
 *    trip (see FIGLUT_ROUND_F32);
 *  - the build disables FP contraction.
 */

#ifndef FIGLUT_CORE_VECTOR_KERNELS_H
#define FIGLUT_CORE_VECTOR_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "core/simd.h"

// Doubles per native vector of the including unit.
#if defined(__AVX512F__)
#define FIGLUT_VEC_LANES 8
#elif defined(__AVX__)
#define FIGLUT_VEC_LANES 4
#else // SSE2, NEON
#define FIGLUT_VEC_LANES 2
#endif

#define FIGLUT_VEC_AT(p) (*reinterpret_cast<VecU *>(p))
#define FIGLUT_VEC_LOAD(p) (*reinterpret_cast<const VecU *>(p))

namespace figlut {
namespace simd_detail {

// The scalar table's entries (simd.cpp) that the bodies call out of line.
void foldIntPlaneFp32Scalar(double *acc, const double *alpha,
                            const std::int64_t *psum, double scale,
                            std::size_t n);
void foldOffsetFp32Scalar(double *acc, const double *off, double sumx,
                          std::size_t n);
void geluLutFlatScalar(double *out, const double *v, std::size_t n,
                       const GeluLutTable &t);

namespace {

/** Doubles per native vector. */
constexpr std::size_t kLanes = FIGLUT_VEC_LANES;

/**
 * One native vector of doubles (GCC/Clang generic vector). Only ever
 * a local, never a parameter, so no calling convention depends on it.
 */
typedef double Vec
    __attribute__((vector_size(FIGLUT_VEC_LANES * sizeof(double))));

/** Vec at any double-aligned address, for loads and stores. */
typedef double VecU
    __attribute__((vector_size(FIGLUT_VEC_LANES * sizeof(double)),
                   aligned(sizeof(double)), may_alias));

/** The native vector's lanes as 64-bit patterns. */
typedef std::uint64_t U64Vec
    __attribute__((vector_size(FIGLUT_VEC_LANES * sizeof(double))));
typedef std::uint64_t U64VecU
    __attribute__((vector_size(FIGLUT_VEC_LANES * sizeof(double)),
                   aligned(sizeof(double)), may_alias));

/** The native vector's lanes as binary32 and as int32. */
typedef float F32Vec
    __attribute__((vector_size(FIGLUT_VEC_LANES * sizeof(float))));
typedef std::int32_t I32Vec
    __attribute__((vector_size(FIGLUT_VEC_LANES * sizeof(float))));

/** The kSimdReduceLanes logical lanes of the strided reductions. */
typedef double Vec4
    __attribute__((vector_size(kSimdReduceLanes * sizeof(double))));
typedef double Vec4U
    __attribute__((vector_size(kSimdReduceLanes * sizeof(double)),
                   aligned(sizeof(double)), may_alias));

/**
 * The binary32 round-trip of FpArith::Fp32 into `out`: one vector
 * convert down and one up. GCC 12 splits a __builtin_convertvector
 * widening into halves, so the widening is written lane by lane, which
 * its SLP vectorizer turns into one convert. The narrowing must stay
 * the builtin: GCC 12.2 compiles a lane-by-lane (double)(float) round
 * trip to nothing at -O2 and -O3.
 */
#define FIGLUT_ROUND_F32(out, v)                                          \
    do {                                                                  \
        const F32Vec narrowed = __builtin_convertvector((v), F32Vec);     \
        for (std::size_t l = 0; l < kLanes; ++l)                          \
            (out)[l] = narrowed[l];                                       \
    } while (0)

#define FIGLUT_U64_LOAD(p) (*reinterpret_cast<const U64VecU *>(p))

/** Offset that maps [-2^51, 2^51) onto the unsigned range [0, 2^52). */
constexpr std::uint64_t kExactCvtBias = std::uint64_t{1} << 51;

/**
 * True when some lane of `biased` (psums plus kExactCvtBias) lies
 * outside [0, 2^52), where the bias conversion below is not exact.
 */
inline bool
anyOutsideExactCvt(const U64Vec &biased)
{
    std::uint64_t high = 0;
    for (std::size_t l = 0; l < kLanes; ++l)
        high |= biased[l] >> 52;
    return high != 0;
}

/**
 * foldIntPlaneFp32 on the kLanes rows at r, whose psums all lie in
 * [-2^51, 2^51). There v + bits(2^52 + 2^51) is the bit pattern of
 * the double 2^52 + 2^51 + v, so subtracting 2^52 + 2^51 yields v
 * exactly, which is what static_cast<double> returns.
 */
inline void
foldIntPlaneVector(double *acc, const double *alpha,
                   const std::int64_t *psum, double scale, std::size_t r)
{
    constexpr double kMagic = 6755399441055744.0; // 2^52 + 2^51
    constexpr std::uint64_t kMagicBits = 0x4338000000000000;
    const U64Vec v = FIGLUT_U64_LOAD(psum + r);
    const Vec p =
        (reinterpret_cast<Vec>(v + kMagicBits) - kMagic) * scale;
    Vec t, sum;
    FIGLUT_ROUND_F32(t, FIGLUT_VEC_LOAD(alpha + r) * p);
    FIGLUT_ROUND_F32(sum, FIGLUT_VEC_LOAD(acc + r) + t);
    FIGLUT_VEC_AT(acc + r) = sum;
}

/**
 * foldIntPlaneFp32 when some psum lies outside [-2^51, 2^51): each
 * vector holding one runs the scalar table's fold. Kept out of line
 * so that the common path's only call is its tail call, and it needs
 * no stack frame.
 */
__attribute__((noinline)) void
foldIntPlaneMixed(double *acc, const double *alpha,
                  const std::int64_t *psum, double scale, std::size_t n)
{
    std::size_t r = 0;
    for (; r + kLanes <= n; r += kLanes) {
        if (anyOutsideExactCvt(FIGLUT_U64_LOAD(psum + r) + kExactCvtBias))
            foldIntPlaneFp32Scalar(acc + r, alpha + r, psum + r, scale,
                                   kLanes);
        else
            foldIntPlaneVector(acc, alpha, psum, scale, r);
    }
    foldIntPlaneFp32Scalar(acc + r, alpha + r, psum + r, scale, n - r);
}

/**
 * foldIntPlaneFp32. Psums past 2^51 are rare, so one pass over the
 * whole vectors finds whether there is any before the fold picks its
 * loop.
 */
inline void
foldIntPlaneFp32Body(double *acc, const double *alpha,
                     const std::int64_t *psum, double scale, std::size_t n)
{
    const std::size_t whole = n - n % kLanes;
    // Two vectors per step halve the scan's loop overhead.
    U64Vec seen = U64Vec{}, seen2 = U64Vec{};
    std::size_t r = 0;
    for (; r + 2 * kLanes <= whole; r += 2 * kLanes) {
        seen |= FIGLUT_U64_LOAD(psum + r) + kExactCvtBias;
        seen2 |= FIGLUT_U64_LOAD(psum + r + kLanes) + kExactCvtBias;
    }
    if (r < whole)
        seen |= FIGLUT_U64_LOAD(psum + r) + kExactCvtBias;
    seen |= seen2;
    if (anyOutsideExactCvt(seen))
        return foldIntPlaneMixed(acc, alpha, psum, scale, n);
    for (r = 0; r < whole; r += kLanes)
        foldIntPlaneVector(acc, alpha, psum, scale, r);
    foldIntPlaneFp32Scalar(acc + whole, alpha + whole, psum + whole, scale,
                           n - whole);
}

/** foldOffsetFp32. */
inline void
foldOffsetFp32Body(double *acc, const double *off, double sumx,
                   std::size_t n)
{
    std::size_t r = 0;
    for (; r + kLanes <= n; r += kLanes) {
        Vec t, sum;
        FIGLUT_ROUND_F32(t, FIGLUT_VEC_LOAD(off + r) * sumx);
        FIGLUT_ROUND_F32(sum, FIGLUT_VEC_LOAD(acc + r) + t);
        FIGLUT_VEC_AT(acc + r) = sum;
    }
    foldOffsetFp32Scalar(acc + r, off + r, sumx, n - r);
}

inline void
addFlatBody(double *out, const double *a, const double *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        FIGLUT_VEC_AT(out + i) =
            FIGLUT_VEC_LOAD(a + i) + FIGLUT_VEC_LOAD(b + i);
    for (; i < n; ++i)
        out[i] = a[i] + b[i];
}

inline double
sumLanesBody(const double *v, std::size_t n)
{
    Vec4 acc = Vec4{};
    std::size_t i = 0;
    for (; i + kSimdReduceLanes <= n; i += kSimdReduceLanes)
        acc = acc + *reinterpret_cast<const Vec4U *>(v + i);
    for (std::size_t l = 0; i < n; ++i, ++l)
        acc[l] += v[i];
    return ((acc[0] + acc[1]) + acc[2]) + acc[3];
}

inline double
sumSqDevLanesBody(const double *v, double mean, std::size_t n)
{
    Vec4 acc = Vec4{};
    std::size_t i = 0;
    for (; i + kSimdReduceLanes <= n; i += kSimdReduceLanes) {
        const Vec4 d = *reinterpret_cast<const Vec4U *>(v + i) - mean;
        acc = acc + d * d;
    }
    for (std::size_t l = 0; i < n; ++i, ++l) {
        const double d = v[i] - mean;
        acc[l] += d * d;
    }
    return ((acc[0] + acc[1]) + acc[2]) + acc[3];
}

inline void
normalizeFlatBody(double *out, const double *v, double mean,
                  double invStd, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        FIGLUT_VEC_AT(out + i) =
            (FIGLUT_VEC_LOAD(v + i) - mean) * invStd;
    for (; i < n; ++i)
        out[i] = (v[i] - mean) * invStd;
}

/**
 * geluLutFlat. The clamp has the scalar predicates (NaN clamps to lo),
 * the segment index truncates as static_cast<int> does, and each lane
 * reads its own knot value and slope.
 */
inline void
geluLutFlatBody(double *out, const double *v, std::size_t n,
                const GeluLutTable &t)
{
    const Vec lo = Vec{} + t.lo;
    const Vec hi = Vec{} + t.hi;
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const Vec x = FIGLUT_VEC_LOAD(v + i);
        Vec cx = x > lo ? x : lo;
        cx = cx < hi ? cx : hi;
        I32Vec idx =
            __builtin_convertvector((cx - t.lo) * t.invStep, I32Vec);
        idx = idx < t.segments ? idx : t.segments - 1;
        const Vec x0 = t.lo + __builtin_convertvector(idx, Vec) * t.step;
        Vec val, slp;
        for (std::size_t l = 0; l < kLanes; ++l) {
            val[l] = t.value[static_cast<std::size_t>(idx[l])];
            slp[l] = t.slope[static_cast<std::size_t>(idx[l])];
        }
        const Vec pwl = val + (cx - x0) * slp;
        FIGLUT_VEC_AT(out + i) = x > hi ? x : pwl;
    }
    geluLutFlatScalar(out + i, v + i, n - i, t);
}

/**
 * accumIntSpanCols of a table without a blocked kernel: its
 * single-column span, once per column.
 */
template <decltype(SimdKernels::accumIntSpan) Span>
void
accumIntSpanColsEach(std::int64_t *const *psum,
                     const std::int64_t *const *lut, std::size_t lutStride,
                     const std::uint32_t *keys, std::size_t keyStride,
                     std::size_t chunks, std::size_t n, std::size_t cols)
{
    for (std::size_t j = 0; j < cols; ++j)
        Span(psum[j], lut[j], lutStride, keys, keyStride, chunks, n);
}

} // namespace
} // namespace simd_detail
} // namespace figlut

#undef FIGLUT_ROUND_F32
#undef FIGLUT_U64_LOAD

#endif // FIGLUT_CORE_VECTOR_KERNELS_H
