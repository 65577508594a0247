/** @file Tests for the runtime ActFormat descriptor. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "numerics/fp16.h"
#include "numerics/fp_format.h"

namespace figlut {
namespace {

TEST(ActFormat, NamesAndWidths)
{
    EXPECT_EQ(actFormatName(ActFormat::FP16), "FP16");
    EXPECT_EQ(actFormatName(ActFormat::BF16), "BF16");
    EXPECT_EQ(actFormatName(ActFormat::FP32), "FP32");
    EXPECT_EQ(significandBits(ActFormat::FP16), 11);
    EXPECT_EQ(significandBits(ActFormat::BF16), 8);
    EXPECT_EQ(significandBits(ActFormat::FP32), 24);
    EXPECT_EQ(storageBits(ActFormat::FP16), 16);
    EXPECT_EQ(storageBits(ActFormat::BF16), 16);
    EXPECT_EQ(storageBits(ActFormat::FP32), 32);
}

TEST(ActFormat, QuantizeMatchesFp16Type)
{
    for (const double v : {0.1, -3.7, 1234.5, 1e-5, 65504.0}) {
        EXPECT_EQ(quantizeToFormat(v, ActFormat::FP16),
                  Fp16::fromDouble(v).toDouble());
    }
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/**
 * quantizeToFormat's inline normal-range rounding at the edges of its
 * range, for both 16-bit formats: ties and their neighbours where the
 * largest value of exponent maxExp - 1 rounds up into maxExp, the
 * finite maximum and the overflow threshold (65504 / 65520 in FP16),
 * the minimum normal, and the largest subnormal. Each value and its
 * negation must give the bits of the full-range path, and a few
 * results are pinned outright.
 */
TEST(ActFormat, InlineRoundingMatchesFullRangeAtBoundaries)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const ActFormat fmt : {ActFormat::FP16, ActFormat::BF16}) {
        const FpSpec &spec = actFormatSpec(fmt);
        const int mant = spec.mantBits;
        // Output ulps at exponents maxExp - 1, maxExp and minExp.
        const double ulpBelowTop = std::ldexp(1.0, spec.maxExp() - 1 - mant);
        const double ulpTop = std::ldexp(1.0, spec.maxExp() - mant);
        const double minNormal = std::ldexp(1.0, spec.minExp());
        const double quantum = std::ldexp(1.0, spec.minExp() - mant);
        const double topPow = std::ldexp(1.0, spec.maxExp());
        const double finiteMax = 2.0 * topPow - ulpTop;
        const double largestSub = minNormal - quantum;
        const std::vector<double> centres = {
            topPow - 0.5 * ulpBelowTop, // tie: odd mantissa rounds up
            topPow - 1.5 * ulpBelowTop, // tie: even mantissa stays
            topPow - ulpBelowTop,
            topPow,
            finiteMax,
            finiteMax + 0.5 * ulpTop, // overflow threshold
            minNormal,
            minNormal - 0.5 * quantum, // tie between sub and normal
            largestSub,
            largestSub - 0.5 * quantum,
            minNormal + 0.5 * quantum,
            minNormal + 1.5 * quantum,
        };
        for (const double c : centres) {
            for (const double v :
                 {c, std::nextafter(c, 0.0), std::nextafter(c, inf)}) {
                for (const double x : {v, -v}) {
                    EXPECT_EQ(bitsOf(quantizeToFormat(x, fmt)),
                              bitsOf(quantizeToFormatFullRange(x, fmt)))
                        << actFormatName(fmt) << " x=" << x;
                    EXPECT_EQ(bitsOf(quantizeToFormat(x, fmt)),
                              bitsOf(decodeFormat(roundToFormat(x, spec),
                                                  spec)))
                        << actFormatName(fmt) << " x=" << x;
                }
            }
        }
        EXPECT_EQ(quantizeToFormat(topPow - 0.5 * ulpBelowTop, fmt), topPow)
            << actFormatName(fmt);
        EXPECT_EQ(quantizeToFormat(topPow - 1.5 * ulpBelowTop, fmt),
                  topPow - 2.0 * ulpBelowTop)
            << actFormatName(fmt);
        EXPECT_EQ(quantizeToFormat(minNormal - 0.5 * quantum, fmt),
                  minNormal)
            << actFormatName(fmt);
    }
    EXPECT_EQ(quantizeToFormat(65504.0, ActFormat::FP16), 65504.0);
    EXPECT_EQ(quantizeToFormat(65519.99, ActFormat::FP16), 65504.0);
    EXPECT_EQ(quantizeToFormat(65520.0, ActFormat::FP16), inf);
    EXPECT_EQ(quantizeToFormat(32760.0, ActFormat::FP16), 32768.0);
    EXPECT_EQ(quantizeToFormat(32759.99, ActFormat::FP16), 32752.0);
}

TEST(ActFormat, QuantizeFp32MatchesFloatCast)
{
    for (const double v : {0.1, -3.7, 1e20, 1e-30}) {
        EXPECT_EQ(quantizeToFormat(v, ActFormat::FP32),
                  static_cast<double>(static_cast<float>(v)));
    }
}

TEST(ActFormat, QuantizeIsIdempotent)
{
    for (const auto fmt : kAllActFormats) {
        const double q = quantizeToFormat(0.123456789, fmt);
        EXPECT_EQ(quantizeToFormat(q, fmt), q)
            << actFormatName(fmt);
    }
}

TEST(ActFormat, EncodeMatchesBitPatterns)
{
    EXPECT_EQ(encodeFormat(1.0, ActFormat::FP16), 0x3C00u);
    EXPECT_EQ(encodeFormat(1.0, ActFormat::BF16), 0x3F80u);
    EXPECT_EQ(encodeFormat(1.0f, ActFormat::FP32), 0x3F800000u);
}

TEST(ActFormat, ParseAcceptsCaseInsensitive)
{
    EXPECT_EQ(parseActFormat("fp16"), ActFormat::FP16);
    EXPECT_EQ(parseActFormat("Bf16"), ActFormat::BF16);
    EXPECT_EQ(parseActFormat("FP32"), ActFormat::FP32);
    EXPECT_THROW(parseActFormat("fp8"), FatalError);
}

TEST(ActFormat, SpecsAreConsistent)
{
    for (const auto fmt : kAllActFormats) {
        const auto &spec = actFormatSpec(fmt);
        EXPECT_EQ(spec.mantBits + 1, significandBits(fmt));
    }
}

} // namespace
} // namespace figlut
