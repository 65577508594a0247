/**
 * @file
 * Mantissa pre-alignment: the FP->INT conversion trick shared by iFPU,
 * FIGNA and FIGLUT-I.
 *
 * A block of floating-point activations is aligned to the maximum
 * exponent in the block: every value becomes a signed integer mantissa
 * scaled by a single shared power of two. All subsequent arithmetic
 * (adds for the bit-serial engines, multiplies for FIGNA) is plain
 * integer arithmetic; one FP multiply per output restores the scale.
 *
 * Alignment is lossy for values much smaller than the block maximum;
 * the fraction-bit budget (`fracBits`) controls that loss and mirrors
 * the aligned-mantissa datapath width of the hardware.
 */

#ifndef FIGLUT_NUMERICS_PREALIGN_H
#define FIGLUT_NUMERICS_PREALIGN_H

#include <cstdint>
#include <vector>

#include "numerics/fp_format.h"

namespace figlut {

/** Rounding applied when shifting mantissas right during alignment. */
enum class AlignRounding
{
    Truncate,       ///< drop shifted-out bits (cheapest hardware)
    NearestEven,    ///< RNE on the shifted-out fraction
};

/** A block of activations re-expressed on a shared exponent. */
struct AlignedBlock
{
    /** value[i] ~= mantissas[i] * 2^(sharedExp - fracBits). */
    std::vector<int64_t> mantissas;
    int sharedExp = 0;   ///< unbiased exponent of the block maximum
    int fracBits = 0;    ///< fraction bits kept below the shared exponent
    bool allZero = true; ///< no non-zero finite input present

    /** Exact double value represented by mantissa index i. */
    double valueAt(std::size_t i) const;

    /** Scale factor 2^(sharedExp - fracBits) as a double. */
    double scale() const;
};

/** Range of the aligned datapath's fraction width (frac_bits). */
inline constexpr int kMinAlignFracBits = 2;
inline constexpr int kMaxAlignFracBits = 60;

/** The block-wide fields preAlignInto() returns beside its mantissas. */
struct AlignHeader
{
    int sharedExp = 0;   ///< unbiased exponent of the block maximum
    bool allZero = true; ///< no non-zero finite input present
};

/**
 * Allocation-free core of preAlign(): rounds each of the `count`
 * values values[0], values[stride], ... to `fmt` exactly once, then
 * writes its aligned mantissa to mantissas[0..count). The shift is
 * one exact power-of-two multiply per value, and NearestEven rounds
 * ties to even without a libm call. Non-finite inputs (after
 * rounding) and frac_bits outside [kMinAlignFracBits,
 * kMaxAlignFracBits] are fatal.
 */
AlignHeader preAlignInto(const double *values, std::size_t count,
                         std::size_t stride, ActFormat fmt, int frac_bits,
                         AlignRounding rounding, int64_t *mantissas);

/** The block scale 2^(sharedExp - fracBits), an exact power of two. */
double alignScale(int shared_exp, int frac_bits);

/**
 * Pre-align a block of format-`fmt` activations (preAlignInto() into
 * a freshly allocated block).
 *
 * @param values     activation values (rounded to fmt first, so values
 *                   already representable in fmt are unchanged)
 * @param fmt        activation format (decides the input mantissa width)
 * @param frac_bits  aligned datapath fraction width; defaults (24) give
 *                   the near-lossless behaviour reported by iFPU/FIGNA
 * @param rounding   shift-out rounding mode
 */
AlignedBlock preAlign(const std::vector<double> &values, ActFormat fmt,
                      int frac_bits = 24,
                      AlignRounding rounding = AlignRounding::NearestEven);

/**
 * Integer dot product between aligned mantissas and small integer
 * weights, with the result returned as an exact double
 * (sum * 2^(sharedExp - fracBits)).
 *
 * Weight values must fit in 32 bits; the accumulation uses __int128 so
 * it cannot overflow for any realistic block length.
 */
double alignedDot(const AlignedBlock &block,
                  const std::vector<int32_t> &weights);

/** Sum of a subset of mantissas with per-element signs (+1/-1). */
int64_t alignedSignedSum(const AlignedBlock &block,
                         const std::vector<int8_t> &signs);

} // namespace figlut

#endif // FIGLUT_NUMERICS_PREALIGN_H
