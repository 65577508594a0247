#include "numerics/prealign.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace figlut {

double
AlignedBlock::scale() const
{
    return std::ldexp(1.0, sharedExp - fracBits);
}

double
AlignedBlock::valueAt(std::size_t i) const
{
    FIGLUT_ASSERT(i < mantissas.size(), "aligned index out of range");
    return static_cast<double>(mantissas[i]) * scale();
}

AlignedBlock
preAlign(const std::vector<double> &values, ActFormat fmt, int frac_bits,
         AlignRounding rounding)
{
    if (frac_bits < 2 || frac_bits > 60)
        fatal("pre-alignment fraction bits must be in [2, 60], got ",
              frac_bits);

    AlignedBlock block;
    block.fracBits = frac_bits;
    block.mantissas.resize(values.size(), 0);

    // Find the maximum exponent across the block.
    int max_exp = 0;
    bool any = false;
    std::vector<double> quantized(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double q = quantizeToFormat(values[i], fmt);
        if (std::isnan(q) || std::isinf(q))
            fatal("pre-alignment input ", i, " is not finite");
        quantized[i] = q;
        if (q != 0.0) {
            // Every non-zero FP16/BF16/FP32 value is a normal double,
            // so the unbiased exponent is the biased field minus 1023.
            uint64_t bits = 0;
            std::memcpy(&bits, &q, sizeof(bits));
            const int unbiased =
                static_cast<int>((bits >> 52) & 0x7ffu) - 1023;
            max_exp = any ? std::max(max_exp, unbiased) : unbiased;
            any = true;
        }
    }
    if (!any) {
        block.allZero = true;
        block.sharedExp = 0;
        return block;
    }
    block.allZero = false;
    block.sharedExp = max_exp;

    // Express each value as m * 2^(sharedExp - fracBits).
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double scaled =
            std::ldexp(quantized[i], frac_bits - max_exp);
        double m = 0.0;
        switch (rounding) {
          case AlignRounding::Truncate:
            m = std::trunc(scaled);
            break;
          case AlignRounding::NearestEven: {
            const double f = std::floor(scaled);
            const double d = scaled - f;
            if (d > 0.5) {
                m = f + 1.0;
            } else if (d < 0.5) {
                m = f;
            } else {
                m = (std::fmod(f, 2.0) == 0.0) ? f : f + 1.0;
            }
            break;
          }
        }
        block.mantissas[i] = static_cast<int64_t>(m);
    }
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
