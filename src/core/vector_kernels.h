/**
 * @file
 * The body of the flat SimdKernels entries (the FIGLUT-I column
 * prologue, the epilogue folds, the layer norm reductions and
 * normalize, the residual add and the GELU), compiled once per ISA: each vector kernel unit (simd_avx2.cpp,
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
 *  - the column prologue rounds with quantizeToFormat's integer rule
 *    on the bit pattern, sends every vector holding a lane outside
 *    the format's normal range (zero excepted) to the scalar
 *    rounding out of line, and shifts with an exact power-of-two
 *    multiply and the same 2^52 + 2^51 conversion; its table entries
 *    and sum are int64 sums, exact in any order;
 *  - the build disables FP contraction.
 */

#ifndef FIGLUT_CORE_VECTOR_KERNELS_H
#define FIGLUT_CORE_VECTOR_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/lut_key.h"
#include "core/simd.h"
#include "numerics/fp_format.h"

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
IntPrologueResult prologueIntScalar(const IntPrologueGroup &group);
void foldIntPlaneFp32Scalar(double *acc, const double *alpha,
                            const std::int64_t *psum, double scale,
                            std::size_t n);
void foldOffsetFp32Scalar(double *acc, const double *off, double sumx,
                          std::size_t n);

/**
 * The rounding pass of preAlignInto over the n values x[0],
 * x[stride], ...: each rounded by quantizeToFormat, its bits stored to
 * bits[i]. Returns the largest biased exponent field among them, 0
 * when all are zero. A non-finite result is fatal and names input
 * first + i.
 */
std::uint64_t alignRoundScalar(const double *x, std::size_t stride,
                               std::size_t n, std::size_t first,
                               ActFormat format, std::uint64_t *bits);

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

/** The native vector's lanes as signed 64-bit integers. */
typedef std::int64_t I64Vec
    __attribute__((vector_size(FIGLUT_VEC_LANES * sizeof(double))));

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

/** True when the sign bit of some lane of v is set. */
inline bool
anyNegative(const I64Vec &v)
{
    std::int64_t any = 0;
    for (std::size_t l = 0; l < kLanes; ++l)
        any |= v[l];
    return any < 0;
}

/**
 * The kLanes values x[0], x[stride], ... as bit patterns, built in
 * registers: one brace-initialized vector, which GCC assembles with
 * inserts, where lane-by-lane stores would round-trip the stack and
 * stall the vector reload on store forwarding.
 */
template <std::size_t... L>
inline U64Vec
gatherLaneBits(const double *x, std::size_t stride,
               std::index_sequence<L...>)
{
    return U64Vec{__builtin_bit_cast(std::uint64_t, x[L * stride])...};
}

inline U64Vec
loadLaneBits(const double *x, std::size_t stride)
{
    if (stride == 1)
        return FIGLUT_U64_LOAD(x);
    return gatherLaneBits(x, stride, std::make_index_sequence<kLanes>{});
}

/**
 * quantizeToFormat's bit-pattern rounding (numerics/fp_format.h) for
 * FP16 or BF16, on the kLanes values u. It is exact for a value whose
 * unbiased exponent lies in [minExp, maxExp - 1], and maps +-0 to
 * itself; every other lane sets the sign bit of its lane of `outside`
 * and its result is not used.
 */
template <ActFormat Fmt>
inline U64Vec
roundToFormatLanes(const U64Vec &u, I64Vec &outside)
{
    constexpr FpSpec kSpec = Fmt == ActFormat::FP16 ? kFp16Spec : kBf16Spec;
    constexpr int kShift = 52 - kSpec.mantBits;
    constexpr std::uint64_t kHalf = std::uint64_t{1} << (kShift - 1);
    constexpr std::uint64_t kLow = (std::uint64_t{1} << kShift) - 1;
    constexpr std::int64_t kLowField = 1023 + kSpec.minExp();
    constexpr std::int64_t kFieldSpan = kSpec.maxExp() - 1 - kSpec.minExp();
    const I64Vec d = reinterpret_cast<I64Vec>((u >> 52) & 0x7ff) - kLowField;
    const I64Vec nonzero = reinterpret_cast<I64Vec>(u << 1) != 0;
    outside |= (d | (kFieldSpan - d)) & nonzero;
    return (u + (kHalf - 1) + ((u >> kShift) & 1)) & ~kLow;
}

/** The biased exponent fields of u's lanes. */
inline I64Vec
exponentFields(const U64Vec &u)
{
    return reinterpret_cast<I64Vec>((u >> 52) & 0x7ff);
}

/** v's lanes rotated down by H: lane l holds lane (l + H) % kLanes. */
template <std::size_t H, std::size_t... L>
inline I64Vec
rotateLanes(const I64Vec &v, std::index_sequence<L...>)
{
    return __builtin_shufflevector(v, v, ((L + H) % kLanes)...);
}

/**
 * The largest lane of v, by halving rotations, so that v stays in a
 * register (reading its lanes one by one puts it on the stack).
 */
inline std::int64_t
maxLane(I64Vec v)
{
    constexpr auto kIdx = std::make_index_sequence<kLanes>{};
    I64Vec r;
    if constexpr (kLanes >= 8) {
        r = rotateLanes<4>(v, kIdx);
        v = v > r ? v : r;
    }
    if constexpr (kLanes >= 4) {
        r = rotateLanes<2>(v, kIdx);
        v = v > r ? v : r;
    }
    r = rotateLanes<1>(v, kIdx);
    v = v > r ? v : r;
    return v[0];
}

/**
 * The rounding pass when some lane of the whole vectors lies outside
 * the format's normal range: each vector holding one runs the scalar
 * rounding, so zero, subnormal, overflowing and non-finite values get
 * quantizeToFormat's result (and its fatal). Returns the largest
 * exponent field.
 */
template <ActFormat Fmt>
__attribute__((noinline)) std::int64_t
alignRoundMixed(const double *x, std::size_t stride, std::size_t whole,
                std::uint64_t *bits)
{
    I64Vec maxField = I64Vec{};
    for (std::size_t i = 0; i < whole; i += kLanes) {
        I64Vec outside = I64Vec{};
        const U64Vec r = roundToFormatLanes<Fmt>(
            loadLaneBits(x + i * stride, stride), outside);
        if (anyNegative(outside)) {
            const I64Vec f = I64Vec{} + static_cast<std::int64_t>(
                alignRoundScalar(x + i * stride, stride, kLanes, i, Fmt,
                                 bits + i));
            maxField = maxField > f ? maxField : f;
            continue;
        }
        *reinterpret_cast<U64VecU *>(bits + i) = r;
        const I64Vec f = exponentFields(r);
        maxField = maxField > f ? maxField : f;
    }
    return maxLane(maxField);
}

/**
 * The aligned mantissa of q, a double or each lane of a Vec, as bits:
 * q * shift is exact (a power-of-two multiply), and for |q * shift| <
 * 2^51 adding 2^52 + 2^51 rounds it to the nearest integer, ties to
 * even, in the low bits, which subtracting the sum's bits recovers:
 * preAlignInto's roundHalfEven and int64 conversion in one step.
 */
template <typename T>
inline typename BitsOf<T>::type
alignedMantissa(T q, double shift)
{
    typedef typename BitsOf<T>::type U;
    constexpr double kMagic = 6755399441055744.0; // 2^52 + 2^51
    constexpr std::uint64_t kMagicBits = 0x4338000000000000;
    return __builtin_bit_cast(U, q * shift + kMagic) - kMagicBits;
}

/**
 * preAlignInto (NearestEven) of one FP16 or BF16 group into
 * group.mant at fracBits <= kMaxVectorAlignFracBits. Lanes hold
 * independent values: the rounding is quantizeToFormat's rule on the
 * bit pattern, with lanes outside the format's normal range sent to
 * the scalar rounding; the shared exponent is a lane max of the
 * exponent fields (zeros have field 0, so 0 means all zero); the
 * shift is alignedMantissa.
 */
template <ActFormat Fmt>
AlignHeader
alignGroupLanes(const IntPrologueGroup &g)
{
    // Locals: the stores through bits could alias g's fields.
    const double *x = g.x;
    const std::size_t count = g.count, stride = g.stride;
    std::uint64_t *bits = reinterpret_cast<std::uint64_t *>(g.mant);
    const std::size_t whole = count - count % kLanes;
    I64Vec maxField = I64Vec{}, outside = I64Vec{};
    for (std::size_t i = 0; i < whole; i += kLanes) {
        const U64Vec r = roundToFormatLanes<Fmt>(
            loadLaneBits(x + i * stride, stride), outside);
        *reinterpret_cast<U64VecU *>(bits + i) = r;
        const I64Vec f = exponentFields(r);
        maxField = maxField > f ? maxField : f;
    }
    std::int64_t maxExp = anyNegative(outside)
                              ? alignRoundMixed<Fmt>(x, stride, whole, bits)
                              : maxLane(maxField);
    const std::int64_t tailMax = static_cast<std::int64_t>(
        alignRoundScalar(x + whole * stride, stride, count - whole, whole,
                         Fmt, bits + whole));
    maxExp = maxExp > tailMax ? maxExp : tailMax;

    AlignHeader header;
    if (maxExp == 0) {
        for (std::size_t i = 0; i < count; ++i)
            bits[i] = 0;
        return header;
    }
    header.allZero = false;
    header.sharedExp = static_cast<int>(maxExp - 1023);
    // 2^(fracBits - sharedExp), whose field 1023 + fracBits - sharedExp
    // lies in [898, 1097] for FP16 and BF16.
    const double shift = __builtin_bit_cast(
        double, static_cast<std::uint64_t>(2046 + g.fracBits - maxExp)
                    << 52);
    std::size_t i = 0;
    for (; i < whole; i += kLanes)
        *reinterpret_cast<U64VecU *>(bits + i) = alignedMantissa(
            reinterpret_cast<Vec>(FIGLUT_U64_LOAD(bits + i)), shift);
    for (; i < count; ++i)
        bits[i] = alignedMantissa(__builtin_bit_cast(double, bits[i]), shift);
    return header;
}

/** Largest fracBits alignedMantissa is exact for: |m| < 2^51. */
constexpr int kMaxVectorAlignFracBits = 50;

/**
 * Each of `chunks` chunks' decoded 2^Mu-entry table from its Mu
 * mantissas, entry key = sum_j (bit Mu-1-j of key ? m_j : -m_j), in
 * wrapping uint64 adds (exact while the entry fits int64). Lanes hold
 * the keys of one table: the term of m_j is (m_j ^ s) - s with s all
 * ones where the key's bit is clear, and s depends only on the key, so
 * it is a constant per vector. Returns the sum of the all-plus entries
 * (key 2^Mu - 1), which is the chunks' mantissa sum.
 */
template <int Mu>
std::int64_t
fillIntTablesLanes(const std::int64_t *mant, std::size_t chunks,
                   std::int64_t *lut)
{
    constexpr std::size_t kEntries = std::size_t{1} << Mu;
    const std::uint64_t *m = reinterpret_cast<const std::uint64_t *>(mant);
    std::uint64_t *out = reinterpret_cast<std::uint64_t *>(lut);
    if constexpr (kEntries < kLanes) {
        // Tables narrower than a vector: one entry at a time.
        std::uint64_t sum = 0;
        for (std::size_t c = 0; c < chunks; ++c, m += Mu, out += kEntries) {
            for (std::size_t key = 0; key < kEntries; ++key) {
                std::uint64_t e = 0;
                for (int j = 0; j < Mu; ++j)
                    e += (key >> (Mu - 1 - j)) & 1 ? m[j] : 0 - m[j];
                out[key] = e;
            }
            sum += out[kEntries - 1];
        }
        return static_cast<std::int64_t>(sum);
    } else {
        U64Vec keys;
        for (std::size_t l = 0; l < kLanes; ++l)
            keys[l] = l;
        U64Vec last = U64Vec{};
        for (std::size_t c = 0; c < chunks; ++c, m += Mu, out += kEntries) {
            U64Vec mj[Mu];
            for (int j = 0; j < Mu; ++j)
                mj[j] = U64Vec{} + m[j];
            U64Vec e;
            for (std::size_t k = 0; k < kEntries; k += kLanes) {
                e = U64Vec{};
                for (int j = 0; j < Mu; ++j) {
                    const U64Vec s = (((keys + k) >> (Mu - 1 - j)) & 1) - 1;
                    e += (mj[j] ^ s) - s;
                }
                *reinterpret_cast<U64VecU *>(out + k) = e;
            }
            last += e;
        }
        return static_cast<std::int64_t>(last[kLanes - 1]);
    }
}

/** fillIntTablesLanes at the runtime mu, in [Mu, kMaxMu]. */
template <int Mu = 1>
inline std::int64_t
fillIntTablesAt(int mu, const std::int64_t *mant, std::size_t chunks,
                std::int64_t *lut)
{
    if constexpr (Mu < kMaxMu) {
        if (mu != Mu)
            return fillIntTablesAt<Mu + 1>(mu, mant, chunks, lut);
    }
    return fillIntTablesLanes<Mu>(mant, chunks, lut);
}

/**
 * prologueInt (the contract in simd.h). FP16 and BF16 groups at
 * fracBits in [kMinAlignFracBits, kMaxVectorAlignFracBits] align in
 * lanes; FP32 and wider fractions keep preAlignInto. The tables are
 * filled in lanes either way.
 */
inline IntPrologueResult
prologueIntBody(const IntPrologueGroup &g)
{
    if (g.mu < 1 || g.mu > kMaxMu)
        return prologueIntScalar(g); // which rejects it
    const std::size_t mu = static_cast<std::size_t>(g.mu);
    const std::size_t chunks = (g.count + mu - 1) / mu;
    IntPrologueResult out;
    const bool lanes = g.fracBits >= kMinAlignFracBits &&
                       g.fracBits <= kMaxVectorAlignFracBits;
    if (lanes && g.format == ActFormat::FP16)
        out.align = alignGroupLanes<ActFormat::FP16>(g);
    else if (lanes && g.format == ActFormat::BF16)
        out.align = alignGroupLanes<ActFormat::BF16>(g);
    else
        out.align = preAlignInto(g.x, g.count, g.stride, g.format,
                                 g.fracBits, AlignRounding::NearestEven,
                                 g.mant);
    for (std::size_t i = g.count; i < chunks * mu; ++i)
        g.mant[i] = 0;
    out.mantSum = fillIntTablesAt(g.mu, g.mant, chunks, g.lut);
    return out;
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
