/**
 * @file
 * Generic IEEE-754 binary rounding machinery.
 *
 * FIGLUT's accuracy evaluation (Table IV) needs *bit-exact* emulation of
 * narrow floating-point formats on the host. The core primitive is
 * "round this double to a (mant_bits, exp_bits) binary format with
 * round-to-nearest-even", implemented as integer arithmetic on the
 * double's bit pattern, so it needs neither libm nor the host FPU
 * rounding mode.
 *
 * Correctness argument used throughout: the sum or product of two
 * binary16 (or bfloat16) values is exactly representable in an IEEE
 * double (demonstrably: worst-case alignment spans < 53 mantissa bits),
 * so compute-in-double followed by one explicit RNE rounding step equals
 * the correctly-rounded narrow operation.
 */

#ifndef FIGLUT_NUMERICS_SOFTFLOAT_H
#define FIGLUT_NUMERICS_SOFTFLOAT_H

#include <cstdint>

namespace figlut {

/** Static description of an IEEE-754 style binary interchange format. */
struct FpSpec
{
    int mantBits;  ///< explicit mantissa (fraction) bits
    int expBits;   ///< exponent field width

    constexpr int bias() const { return (1 << (expBits - 1)) - 1; }
    constexpr int maxExp() const { return bias(); }          ///< unbiased
    constexpr int minExp() const { return 1 - bias(); }      ///< normal min
    constexpr int totalBits() const { return 1 + expBits + mantBits; }
};

/** binary16: 1 sign, 5 exponent, 10 mantissa. */
inline constexpr FpSpec kFp16Spec{10, 5};
/** bfloat16: 1 sign, 8 exponent, 7 mantissa. */
inline constexpr FpSpec kBf16Spec{7, 8};
/** binary32 (for completeness; host float is used directly). */
inline constexpr FpSpec kFp32Spec{23, 8};

/**
 * Round a double to the given format with round-to-nearest-even.
 *
 * Handles signed zero, subnormals, overflow-to-infinity and NaN
 * (canonical quiet NaN). The result is the format's bit pattern in the
 * low bits of the return value. Formats narrower than double only:
 * mantBits <= 51 and expBits <= 10.
 */
uint32_t roundToFormat(double x, const FpSpec &spec);

/** Decode a format bit pattern back to double (exact). */
double decodeFormat(uint32_t bits, const FpSpec &spec);

/**
 * Units-in-the-last-place distance between two bit patterns of the same
 * format, treating the patterns as lexicographically ordered signed
 * magnitudes. NaNs compare at maximum distance.
 */
uint32_t ulpDistance(uint32_t a, uint32_t b, const FpSpec &spec);

} // namespace figlut

#endif // FIGLUT_NUMERICS_SOFTFLOAT_H
