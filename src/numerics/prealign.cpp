#include "numerics/prealign.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace figlut {

namespace {

/**
 * Round to the nearest integer, ties to even, without a libm call.
 * Below 2^52, adding and subtracting 2^52 (signed like v) lands v on
 * the integer grid under the default round-to-nearest-even mode, as
 * nearbyint() does; larger magnitudes are integers already.
 */
inline double
roundHalfEven(double v)
{
    constexpr double kTwo52 = 4503599627370496.0;
    if (!(std::fabs(v) < kTwo52))
        return v;
    const double big = std::copysign(kTwo52, v);
    return (v + big) - big;
}

} // namespace

double
alignScale(int shared_exp, int frac_bits)
{
    return std::ldexp(1.0, shared_exp - frac_bits);
}

double
AlignedBlock::scale() const
{
    return alignScale(sharedExp, fracBits);
}

double
AlignedBlock::valueAt(std::size_t i) const
{
    FIGLUT_ASSERT(i < mantissas.size(), "aligned index out of range");
    return static_cast<double>(mantissas[i]) * scale();
}

AlignHeader
preAlignInto(const double *values, std::size_t count, std::size_t stride,
             ActFormat fmt, int frac_bits, AlignRounding rounding,
             int64_t *mantissas)
{
    if (frac_bits < kMinAlignFracBits || frac_bits > kMaxAlignFracBits)
        fatal("pre-alignment fraction bits must be in [",
              kMinAlignFracBits, ", ", kMaxAlignFracBits, "], got ",
              frac_bits);

    // Round each value to fmt once and find the maximum exponent. The
    // rounded double's bit pattern is parked in its mantissa slot, so
    // the shift pass below needs no second buffer.
    AlignHeader header;
    int max_exp = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const double q = quantizeToFormat(values[i * stride], fmt);
        if (!std::isfinite(q))
            fatal("pre-alignment input ", i, " is not finite");
        uint64_t bits = 0;
        std::memcpy(&bits, &q, sizeof(bits));
        std::memcpy(&mantissas[i], &bits, sizeof(bits));
        if (q != 0.0) {
            // Every non-zero FP16/BF16/FP32 value is a normal double,
            // so the unbiased exponent is the biased field minus 1023.
            const int unbiased =
                static_cast<int>((bits >> 52) & 0x7ffu) - 1023;
            max_exp =
                header.allZero ? unbiased : std::max(max_exp, unbiased);
            header.allZero = false;
        }
    }
    if (header.allZero) {
        std::fill(mantissas, mantissas + count, int64_t{0});
        return header;
    }
    header.sharedExp = max_exp;

    // Express each value as m * 2^(sharedExp - fracBits). |q| spans
    // [2^-149, 2^(max_exp + 1)), so q * shift lies in [2^-274, 2^61):
    // a normal double, making the multiply exact (it is ldexp), and
    // within int64 range for the truncating conversion.
    const double shift = std::ldexp(1.0, frac_bits - max_exp);
    for (std::size_t i = 0; i < count; ++i) {
        double q = 0.0;
        std::memcpy(&q, &mantissas[i], sizeof(q));
        const double scaled = q * shift;
        mantissas[i] = static_cast<int64_t>(
            rounding == AlignRounding::NearestEven ? roundHalfEven(scaled)
                                                   : scaled);
    }
    return header;
}

AlignedBlock
preAlign(const std::vector<double> &values, ActFormat fmt, int frac_bits,
         AlignRounding rounding)
{
    AlignedBlock block;
    block.fracBits = frac_bits;
    block.mantissas.resize(values.size());
    const AlignHeader header =
        preAlignInto(values.data(), values.size(), 1, fmt, frac_bits,
                     rounding, block.mantissas.data());
    block.sharedExp = header.sharedExp;
    block.allZero = header.allZero;
    return block;
}

double
alignedDot(const AlignedBlock &block, const std::vector<int32_t> &weights)
{
    FIGLUT_ASSERT(weights.size() == block.mantissas.size(),
                  "aligned dot length mismatch: ", weights.size(), " vs ",
                  block.mantissas.size());
    __int128 acc = 0;
    for (std::size_t i = 0; i < weights.size(); ++i)
        acc += static_cast<__int128>(block.mantissas[i]) * weights[i];
    return static_cast<double>(acc) * block.scale();
}

int64_t
alignedSignedSum(const AlignedBlock &block,
                 const std::vector<int8_t> &signs)
{
    FIGLUT_ASSERT(signs.size() == block.mantissas.size(),
                  "aligned signed sum length mismatch");
    int64_t acc = 0;
    for (std::size_t i = 0; i < signs.size(); ++i) {
        FIGLUT_ASSERT(signs[i] == 1 || signs[i] == -1,
                      "sign must be +1 or -1, got ", int(signs[i]));
        acc += signs[i] > 0 ? block.mantissas[i] : -block.mantissas[i];
    }
    return acc;
}

} // namespace figlut
