#include "numerics/softfloat.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace figlut {

namespace {

constexpr int kDoubleMantBits = 52;
constexpr int kDoubleBias = 1023;
constexpr uint64_t kDoubleMantMask = (uint64_t{1} << kDoubleMantBits) - 1;

uint64_t
doubleBits(double x)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

double
doubleFromBits(uint64_t bits)
{
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
}

} // namespace

uint32_t
roundToFormat(double x, const FpSpec &spec)
{
    const int mant = spec.mantBits;
    const uint32_t sign_bit = 1u << (spec.expBits + mant);
    const uint32_t exp_mask = ((1u << spec.expBits) - 1u) << mant;

    const uint64_t bits = doubleBits(x);
    const uint32_t sign = (bits >> 63) ? sign_bit : 0u;
    const int dexp = static_cast<int>((bits >> kDoubleMantBits) & 0x7ffu);
    const uint64_t dmant = bits & kDoubleMantMask;

    if (dexp == 0x7ff) {
        if (dmant != 0)
            return exp_mask | (1u << (mant - 1)); // canonical qNaN
        return sign | exp_mask;
    }
    // Zero and double subnormals (< 2^-1022) lie far below half the
    // smallest subnormal of any narrow format: signed zero.
    if (dexp == 0)
        return sign;

    // |x| = sig * 2^(e - 52) with the hidden bit restored. Below the
    // format's normal range the quantum stays at 2^(minExp - mant), so
    // the shift grows by the exponent deficit.
    const int e = dexp - kDoubleBias;
    const int ee = std::max(e, spec.minExp());
    const int shift = kDoubleMantBits - mant + (ee - e);
    if (shift > kDoubleMantBits + 1)
        return sign; // below half the smallest subnormal
    const uint64_t sig = dmant | (uint64_t{1} << kDoubleMantBits);

    // Round to nearest, ties to even, on the shifted-out remainder.
    uint64_t q = sig >> shift;
    const uint64_t rem = sig & ((uint64_t{1} << shift) - 1u);
    const uint64_t half = uint64_t{1} << (shift - 1);
    if (rem > half || (rem == half && (q & 1u)))
        ++q;

    // q carries the hidden bit for normals, so adding it to the field
    // base lets a mantissa carry run into the exponent, and a subnormal
    // rounding up to 2^mant become the smallest normal. Overflow
    // saturates to infinity.
    const uint64_t r =
        (static_cast<uint64_t>(ee + spec.bias() - 1) << mant) + q;
    if (r >= exp_mask)
        return sign | exp_mask;
    return sign | static_cast<uint32_t>(r);
}

double
decodeFormat(uint32_t bits, const FpSpec &spec)
{
    const int mant = spec.mantBits;
    const uint32_t sign_bit = 1u << (spec.expBits + mant);
    const uint32_t exp_all = (1u << spec.expBits) - 1u;
    const uint32_t exp_field = (bits >> mant) & exp_all;
    const uint32_t mant_field = bits & ((1u << mant) - 1u);
    const uint64_t sign = (bits & sign_bit) ? uint64_t{1} << 63 : 0u;

    if (exp_field == exp_all) {
        if (mant_field)
            return std::numeric_limits<double>::quiet_NaN();
        return doubleFromBits(sign | (uint64_t{0x7ff} << kDoubleMantBits));
    }
    if (exp_field == 0) {
        // Subnormal (or zero): mant * 2^(minExp - mantBits), where the
        // power of two is an exact normal double.
        const double quantum = doubleFromBits(
            static_cast<uint64_t>(spec.minExp() - mant + kDoubleBias)
            << kDoubleMantBits);
        return doubleFromBits(
            sign | doubleBits(static_cast<double>(mant_field) * quantum));
    }
    const int unbiased = static_cast<int>(exp_field) - spec.bias();
    return doubleFromBits(
        sign |
        (static_cast<uint64_t>(unbiased + kDoubleBias) << kDoubleMantBits) |
        (static_cast<uint64_t>(mant_field) << (kDoubleMantBits - mant)));
}

uint32_t
ulpDistance(uint32_t a, uint32_t b, const FpSpec &spec)
{
    const uint32_t sign_bit = 1u << (spec.expBits + spec.mantBits);
    const uint32_t exp_mask =
        ((1u << spec.expBits) - 1u) << spec.mantBits;
    const uint32_t mant_mask = (1u << spec.mantBits) - 1u;

    auto is_nan = [&](uint32_t v) {
        return (v & exp_mask) == exp_mask && (v & mant_mask) != 0;
    };
    if (is_nan(a) || is_nan(b))
        return ~0u;

    // Map sign-magnitude onto a monotone integer line.
    auto order = [&](uint32_t v) -> int64_t {
        const int64_t mag = static_cast<int64_t>(v & (sign_bit - 1u));
        return (v & sign_bit) ? -mag : mag;
    };
    const int64_t d = order(a) - order(b);
    const int64_t m = d < 0 ? -d : d;
    return static_cast<uint32_t>(m);
}

} // namespace figlut
