/**
 * @file
 * The body of the flat SimdKernels entries (the epilogue folds, the
 * layer norm reductions and normalize, the residual add and the GELU),
 * compiled once per ISA: each vector kernel unit (simd_avx2.cpp,
 * simd_avx512.cpp, simd_neon.cpp) includes this header under its own
 * target flags and points its table at the bodies. The native vector
 * type and the deterministic exp defined here are also the ones
 * core/attention_kernel.h is written in, and simd.cpp takes the scalar
 * exp and GELU from here too. Internal to those units.
 *
 * Everything here has internal linkage, and the bodies call no inline
 * library template, so the per-ISA copies can never be merged at link
 * time (a merged copy could run AVX-512 code on a baseline host).
 *
 * Bit identity with the scalar table of simd.cpp, which stays plain
 * loops and is the spec:
 *  - lanes only hold independent elements, and tails run the scalar
 *    contract's operations in its order;
 *  - expBody and geluOf are one template body instantiated on double
 *    and on Vec, so each lane computes the scalar bits by construction;
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

/** The native vector's lanes as binary32. */
typedef float F32Vec
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

/** The lanes of T as 64-bit patterns: one for a double, U64Vec for Vec. */
template <typename T>
struct BitsOf;
template <>
struct BitsOf<double>
{
    typedef std::uint64_t type;
};
template <>
struct BitsOf<Vec>
{
    typedef U64Vec type;
};

/**
 * The deterministic exp, on one double or on each lane of a Vec (the
 * contract kernelExp in simd.h states):
 *  - x is clamped to [-746, 710], past which the result is 0 or +inf
 *    either way, so that k below stays in range;
 *  - k = x * log2(e) rounded to nearest even, read off the bits of
 *    x * log2(e) + 2^52 + 2^51;
 *  - Cody-Waite: r = (x - k * ln2Hi) - k * ln2Lo, where ln2Hi has 32
 *    significant bits, so k * ln2Hi and the first difference are
 *    exact, and |r| <= ln2 / 2 up to the rounding of k * ln2Lo;
 *  - e^r is the degree-13 Taylor polynomial in Horner form (the
 *    dropped term is below 2^-57 of the result on that range);
 *  - the scale 2^k is two exact powers of two built from bits,
 *    2^floor(k/2) then 2^(k - floor(k/2)), so that results near
 *    overflow and subnormal results still round once;
 *  - a NaN returns itself.
 */
template <typename T>
inline T
expBody(T x)
{
    typedef typename BitsOf<T>::type U;
    constexpr double kShift = 6755399441055744.0; // 2^52 + 2^51
    constexpr double kLog2e = 1.4426950408889634;
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    // The bits of kShift less the 2048 that keeps k + 2048 unsigned.
    constexpr std::uint64_t kShiftBias = 0x4338000000000000 - 2048;
    const T lo = T{} - 746.0;
    const T hi = T{} + 710.0;
    T c = x < lo ? lo : x;
    c = c > hi ? hi : c;
    const T y = c * kLog2e + kShift;
    const T k = y - kShift;
    const T r = (c - k * kLn2Hi) - k * kLn2Lo;
    T p = r * (1.0 / 6227020800.0) + 1.0 / 479001600.0;
    p = p * r + 1.0 / 39916800.0;
    p = p * r + 1.0 / 3628800.0;
    p = p * r + 1.0 / 362880.0;
    p = p * r + 1.0 / 40320.0;
    p = p * r + 1.0 / 5040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // kb = k + 2048 lies in [972, 3072], so both exponent fields below
    // lie in [485, 1535].
    const U kb = __builtin_bit_cast(U, y) - kShiftBias;
    const U half = kb >> 1;
    const T s1 = __builtin_bit_cast(T, (half - 1) << 52);
    const T s2 = __builtin_bit_cast(T, (kb - half - 1) << 52);
    const T e = p * s1 * s2;
    return x != x ? x : e;
}

/**
 * GELU (tanh approximation) as x / (1 + exp(-2 sqrt(2/pi) (x +
 * 0.044715 x^3))), the same function as 0.5 x (1 + tanh(...)) without
 * that form's cancellation as tanh -> -1.
 */
template <typename T>
inline T
geluOf(T x)
{
    constexpr double kMinus2Sqrt2OverPi = -2.0 * 0.7978845608028654;
    constexpr double kCubicCoeff = 0.044715;
    return x / (1.0 + expBody<T>(kMinus2Sqrt2OverPi *
                                 (x + kCubicCoeff * x * x * x)));
}

/** geluFlat. */
inline void
geluFlatBody(double *out, const double *v, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        FIGLUT_VEC_AT(out + i) = geluOf<Vec>(FIGLUT_VEC_LOAD(v + i));
    for (; i < n; ++i)
        out[i] = geluOf(v[i]);
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
