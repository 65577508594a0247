/**
 * @file
 * Runtime descriptor for the activation formats the engines support.
 *
 * The paper evaluates every engine for FP16, BF16 and FP32 activations
 * (Figs. 13-15). ActFormat carries the format identity through the
 * functional kernels, the datapath-width-dependent area/energy models,
 * and the accuracy harness.
 */

#ifndef FIGLUT_NUMERICS_FP_FORMAT_H
#define FIGLUT_NUMERICS_FP_FORMAT_H

#include <cstdint>
#include <cstring>
#include <string>

#include "numerics/softfloat.h"

namespace figlut {

/** Floating-point activation format. */
enum class ActFormat
{
    FP16,
    BF16,
    FP32,
};

/** All supported formats, in paper order. */
inline constexpr ActFormat kAllActFormats[] = {
    ActFormat::FP16, ActFormat::BF16, ActFormat::FP32};

/** Human-readable name ("FP16", ...). */
std::string actFormatName(ActFormat fmt);

/** IEEE field layout of the format. */
const FpSpec &actFormatSpec(ActFormat fmt);

/** Significand width including the hidden bit (11 / 8 / 24). */
int significandBits(ActFormat fmt);

/** Storage width in bits (16 / 16 / 32). */
int storageBits(ActFormat fmt);

/**
 * quantizeToFormat() over the whole double range: zero, subnormal,
 * overflowing and non-finite values included. quantizeToFormat()
 * inlines the normal-range case and falls through to this for the rest.
 */
double quantizeToFormatFullRange(double v, ActFormat fmt);

/**
 * Round a double through the format and back (RNE).
 *
 * This is the canonical "this value lives in format fmt" operation used
 * when generating activations for the accuracy experiments. Inline:
 * the LUT-GEMM alignment and the Fp16/Bf16 accumulate modes call it
 * once per value. For FP16/BF16 a value whose unbiased exponent e lies
 * in [minExp, maxExp - 1] rounds on the double's own bit pattern: add
 * half an output ulp minus one plus the output lsb (ties to even),
 * then clear the 52 - mantBits bits below the output mantissa. A carry
 * runs into the exponent and can reach at most 2^maxExp, which is
 * still finite in the format. Every other class takes
 * quantizeToFormatFullRange(), which gives the same bits for these
 * values too.
 */
inline double
quantizeToFormat(double v, ActFormat fmt)
{
    if (fmt == ActFormat::FP32) {
        // Host float is IEEE binary32; a single narrowing conversion is
        // the correctly rounded operation.
        return static_cast<double>(static_cast<float>(v));
    }
    const FpSpec &spec = fmt == ActFormat::FP16 ? kFp16Spec : kBf16Spec;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    const int e = static_cast<int>((bits >> 52) & 0x7ffu) - 1023;
    if (e < spec.minExp() || e >= spec.maxExp())
        return quantizeToFormatFullRange(v, fmt);
    const int shift = 52 - spec.mantBits;
    const std::uint64_t half = std::uint64_t{1} << (shift - 1);
    bits += (half - 1u) + ((bits >> shift) & 1u);
    bits &= ~((std::uint64_t{1} << shift) - 1u);
    double out = 0.0;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

/** Bit pattern of v in the format (low bits of the result). */
uint32_t encodeFormat(double v, ActFormat fmt);

/** Parse "FP16"/"BF16"/"FP32" (case-insensitive); throws FatalError. */
ActFormat parseActFormat(const std::string &name);

} // namespace figlut

#endif // FIGLUT_NUMERICS_FP_FORMAT_H
