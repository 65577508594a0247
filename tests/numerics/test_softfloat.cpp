/** @file Tests for the generic IEEE rounding machinery. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "numerics/fp_format.h"
#include "numerics/softfloat.h"

namespace figlut {
namespace {

TEST(FpSpec, Fp16Layout)
{
    EXPECT_EQ(kFp16Spec.bias(), 15);
    EXPECT_EQ(kFp16Spec.maxExp(), 15);
    EXPECT_EQ(kFp16Spec.minExp(), -14);
    EXPECT_EQ(kFp16Spec.totalBits(), 16);
}

TEST(FpSpec, Bf16Layout)
{
    EXPECT_EQ(kBf16Spec.bias(), 127);
    EXPECT_EQ(kBf16Spec.minExp(), -126);
    EXPECT_EQ(kBf16Spec.totalBits(), 16);
}

TEST(RoundToFormat, ExactSmallIntegers)
{
    for (int i = -100; i <= 100; ++i) {
        const auto bits = roundToFormat(static_cast<double>(i), kFp16Spec);
        EXPECT_EQ(decodeFormat(bits, kFp16Spec), static_cast<double>(i))
            << "integer " << i;
    }
}

TEST(RoundToFormat, SignedZeros)
{
    EXPECT_EQ(roundToFormat(0.0, kFp16Spec), 0x0000u);
    EXPECT_EQ(roundToFormat(-0.0, kFp16Spec), 0x8000u);
}

TEST(RoundToFormat, KnownFp16Patterns)
{
    EXPECT_EQ(roundToFormat(1.0, kFp16Spec), 0x3C00u);
    EXPECT_EQ(roundToFormat(-2.0, kFp16Spec), 0xC000u);
    EXPECT_EQ(roundToFormat(65504.0, kFp16Spec), 0x7BFFu); // max normal
    EXPECT_EQ(roundToFormat(5.960464477539063e-08, kFp16Spec), 0x0001u);
}

TEST(RoundToFormat, OverflowToInfinity)
{
    EXPECT_EQ(roundToFormat(1e6, kFp16Spec), 0x7C00u);
    EXPECT_EQ(roundToFormat(-1e6, kFp16Spec), 0xFC00u);
    // 65520 rounds up past max normal -> inf.
    EXPECT_EQ(roundToFormat(65520.0, kFp16Spec), 0x7C00u);
    // 65519.99 rounds down to max normal.
    EXPECT_EQ(roundToFormat(65519.99, kFp16Spec), 0x7BFFu);
}

TEST(RoundToFormat, InfinityAndNan)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(roundToFormat(inf, kFp16Spec), 0x7C00u);
    EXPECT_EQ(roundToFormat(-inf, kFp16Spec), 0xFC00u);
    const auto nan_bits = roundToFormat(std::nan(""), kFp16Spec);
    EXPECT_TRUE(std::isnan(decodeFormat(nan_bits, kFp16Spec)));
}

TEST(RoundToFormat, SubnormalRange)
{
    // Smallest subnormal is 2^-24; half of it ties to even -> 0.
    const double min_sub = std::ldexp(1.0, -24);
    EXPECT_EQ(roundToFormat(min_sub, kFp16Spec), 0x0001u);
    EXPECT_EQ(roundToFormat(min_sub * 0.5, kFp16Spec), 0x0000u);
    EXPECT_EQ(roundToFormat(min_sub * 0.75, kFp16Spec), 0x0001u);
    // 1.5 * min_sub ties between 1 and 2 -> even (2).
    EXPECT_EQ(roundToFormat(min_sub * 1.5, kFp16Spec), 0x0002u);
}

TEST(RoundToFormat, SubnormalRoundsUpToNormal)
{
    // Just below the smallest normal (2^-14) rounds up into it.
    const double min_normal = std::ldexp(1.0, -14);
    const double just_below = min_normal * (1.0 - 1e-9);
    EXPECT_EQ(roundToFormat(just_below, kFp16Spec), 0x0400u);
}

TEST(RoundToFormat, TieToEvenOnMantissaBoundary)
{
    // 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties to even (1.0).
    EXPECT_EQ(roundToFormat(1.0 + std::ldexp(1.0, -11), kFp16Spec),
              0x3C00u);
    // 1 + 3*2^-11 ties between 1+2^-10 and 1+2^-9 -> even (1+2^-9).
    EXPECT_EQ(roundToFormat(1.0 + 3.0 * std::ldexp(1.0, -11), kFp16Spec),
              0x3C02u);
}

TEST(DecodeFormat, RoundTripAllFp16Patterns)
{
    // Exhaustive: every finite bit pattern decodes and re-encodes to
    // itself (canonical NaN excepted).
    for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
        const double v = decodeFormat(bits, kFp16Spec);
        if (std::isnan(v))
            continue;
        EXPECT_EQ(roundToFormat(v, kFp16Spec), bits)
            << "pattern 0x" << std::hex << bits;
    }
}

TEST(DecodeFormat, RoundTripAllBf16Patterns)
{
    for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
        const double v = decodeFormat(bits, kBf16Spec);
        if (std::isnan(v))
            continue;
        EXPECT_EQ(roundToFormat(v, kBf16Spec), bits)
            << "pattern 0x" << std::hex << bits;
    }
}

TEST(UlpDistance, AdjacentAndSignedPatterns)
{
    EXPECT_EQ(ulpDistance(0x3C00u, 0x3C00u, kFp16Spec), 0u);
    EXPECT_EQ(ulpDistance(0x3C00u, 0x3C01u, kFp16Spec), 1u);
    // +0 and -0 are adjacent on the monotone line (both map to 0).
    EXPECT_EQ(ulpDistance(0x0000u, 0x8000u, kFp16Spec), 0u);
    // +min_sub vs -min_sub is 2 ulps apart.
    EXPECT_EQ(ulpDistance(0x0001u, 0x8001u, kFp16Spec), 2u);
}

TEST(UlpDistance, NanIsMaximal)
{
    EXPECT_EQ(ulpDistance(0x7E00u, 0x3C00u, kFp16Spec), ~0u);
}

/**
 * Brute-force rounding oracle: the sorted table of every non-negative
 * finite value of a format, extended by 2^(maxExp + 1) at the infinity
 * pattern. Pattern order is value order, and the extension makes
 * round-to-nearest-even overflow to infinity exactly when the table
 * lookup picks the infinity pattern.
 */
class FormatOracle
{
  public:
    explicit FormatOracle(const FpSpec &spec)
        : spec_(spec),
          signBit_(1u << (spec.expBits + spec.mantBits)),
          expMask_(((1u << spec.expBits) - 1u) << spec.mantBits)
    {
        for (uint32_t p = 0; p <= expMask_; ++p) {
            const int e = static_cast<int>(p >> spec.mantBits);
            const uint32_t m = p & ((1u << spec.mantBits) - 1u);
            const double sig = e == 0 ? m : (1u << spec.mantBits) + m;
            const int scale = std::max(e, 1) - spec.bias() - spec.mantBits;
            values_.push_back(std::ldexp(sig, scale));
        }
    }

    uint32_t signBit() const { return signBit_; }
    uint32_t expMask() const { return expMask_; }
    const std::vector<double> &magnitudes() const { return values_; }

    /** Nearest pattern, ties to the even pattern; canonical qNaN. */
    uint32_t
    round(double x) const
    {
        if (std::isnan(x))
            return expMask_ | (1u << (spec_.mantBits - 1));
        const uint32_t sign = std::signbit(x) ? signBit_ : 0u;
        const double a = std::fabs(x);
        const auto it = std::lower_bound(values_.begin(), values_.end(), a);
        if (it == values_.end())
            return sign | expMask_;
        const auto hi = static_cast<uint32_t>(it - values_.begin());
        if (*it == a)
            return sign | hi;
        // Adjacent table values have few significant bits, so their
        // midpoint is exact.
        const uint32_t lo = hi - 1;
        const double mid = 0.5 * (values_[lo] + values_[hi]);
        if (a < mid)
            return sign | lo;
        if (a > mid)
            return sign | hi;
        return sign | ((lo & 1u) ? hi : lo);
    }

    /** Exact value of a pattern (NaN patterns give NaN). */
    double
    decode(uint32_t bits) const
    {
        const uint32_t mag = bits & (signBit_ - 1u);
        double v = 0.0;
        if (mag > expMask_)
            v = std::numeric_limits<double>::quiet_NaN();
        else if (mag == expMask_)
            v = std::numeric_limits<double>::infinity();
        else
            v = values_[mag];
        return (bits & signBit_) ? -v : v;
    }

  private:
    FpSpec spec_;
    uint32_t signBit_;
    uint32_t expMask_;
    std::vector<double> values_;
};

uint64_t
bitsOf(double x)
{
    uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

double
fromBits(uint64_t b)
{
    double x = 0.0;
    std::memcpy(&x, &b, sizeof(x));
    return x;
}

/** Same double, or both NaN: -0.0 and +0.0 differ. */
bool
sameDouble(double a, double b)
{
    return (std::isnan(a) && std::isnan(b)) || bitsOf(a) == bitsOf(b);
}

/**
 * Check roundToFormat, decodeFormat and quantizeToFormat against the
 * oracle on every pattern and on a fixed set of rounding-boundary and
 * random inputs.
 */
void
checkAgainstOracle(const FpSpec &spec, ActFormat fmt, uint64_t seed)
{
    const FormatOracle oracle(spec);
    const uint32_t patterns = oracle.signBit() << 1;

    int failures = 0;
    auto report = [&failures]() -> bool { return ++failures <= 10; };

    for (uint32_t p = 0; p < patterns; ++p) {
        if (!sameDouble(decodeFormat(p, spec), oracle.decode(p)) &&
            report())
            ADD_FAILURE() << "decodeFormat(0x" << std::hex << p << ")";
    }

    std::vector<double> inputs;
    const auto &mags = oracle.magnitudes();
    for (std::size_t i = 0; i < mags.size(); ++i) {
        inputs.push_back(mags[i]);
        if (i + 1 == mags.size())
            break;
        const double mid = 0.5 * (mags[i] + mags[i + 1]);
        inputs.push_back(mid);
        inputs.push_back(std::nextafter(mid, 0.0));
        inputs.push_back(std::nextafter(mid, HUGE_VAL));
    }
    const double min_sub = mags[1];
    const double denorm = std::numeric_limits<double>::denorm_min();
    for (const double v :
         {65504.0, 65519.99, 65520.0, 0.5 * min_sub, 0.75 * min_sub,
          denorm, std::ldexp(1.0, -1030),
          std::numeric_limits<double>::min() - denorm, 0.0,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::max()})
        inputs.push_back(v);

    // Random doubles: half are raw 64-bit patterns (mostly far outside
    // the format), half keep the exponent near the format's range.
    std::mt19937_64 rng(seed);
    const int lo_exp = spec.minExp() - spec.mantBits - 3;
    const int hi_exp = spec.maxExp() + 2;
    for (int i = 0; i < 500000; ++i) {
        inputs.push_back(fromBits(rng()));
        const auto e = static_cast<uint64_t>(
            lo_exp + static_cast<int>(rng() % (hi_exp - lo_exp + 1)) +
            1023);
        inputs.push_back(
            fromBits((rng() & ((uint64_t{1} << 52) - 1)) | (e << 52)));
    }

    const std::size_t n = inputs.size();
    for (std::size_t i = 0; i < n; ++i)
        inputs.push_back(-inputs[i]);
    inputs.push_back(std::numeric_limits<double>::quiet_NaN());
    inputs.push_back(-std::numeric_limits<double>::quiet_NaN());

    for (const double x : inputs) {
        const uint32_t want = oracle.round(x);
        const uint32_t got = roundToFormat(x, spec);
        if (got != want && report())
            ADD_FAILURE() << "roundToFormat(" << x << ") = 0x" << std::hex
                          << got << ", want 0x" << want;
        if (!sameDouble(quantizeToFormat(x, fmt), oracle.decode(want)) &&
            report())
            ADD_FAILURE() << "quantizeToFormat(" << x << ")";
    }
    EXPECT_EQ(failures, 0);
}

TEST(SoftfloatOracle, Fp16MatchesNearestTableLookup)
{
    checkAgainstOracle(kFp16Spec, ActFormat::FP16, 16);
}

TEST(SoftfloatOracle, Bf16MatchesNearestTableLookup)
{
    checkAgainstOracle(kBf16Spec, ActFormat::BF16, 17);
}

} // namespace
} // namespace figlut
