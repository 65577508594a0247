/** @file Tests for mantissa pre-alignment (iFPU/FIGNA/FIGLUT-I path). */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"
#include "numerics/prealign.h"

namespace figlut {
namespace {

TEST(PreAlign, AllZeroBlock)
{
    const auto block = preAlign({0.0, 0.0, 0.0}, ActFormat::FP16);
    EXPECT_TRUE(block.allZero);
    for (const auto m : block.mantissas)
        EXPECT_EQ(m, 0);
}

TEST(PreAlign, SingleValueIsExact)
{
    const auto block = preAlign({1.5}, ActFormat::FP16, 24);
    EXPECT_FALSE(block.allZero);
    EXPECT_DOUBLE_EQ(block.valueAt(0), 1.5);
}

TEST(PreAlign, PowerOfTwoValuesAreExact)
{
    const std::vector<double> vals = {4.0, 2.0, 1.0, 0.5, 0.25};
    const auto block = preAlign(vals, ActFormat::FP16, 24);
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_DOUBLE_EQ(block.valueAt(i), vals[i]);
    EXPECT_EQ(block.sharedExp, 2); // 4.0 = 1.0 * 2^2
}

TEST(PreAlign, Fp16ValuesExactWith24FracBits)
{
    // Any fp16 value within 13 octaves of the max is exactly
    // representable on a 24-bit-aligned datapath (10 mantissa bits +
    // 14 shift <= 24).
    Rng rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> vals(16);
        for (auto &v : vals)
            v = quantizeToFormat(rng.normal(0.0, 2.0), ActFormat::FP16);
        const auto block = preAlign(vals, ActFormat::FP16, 24);
        for (std::size_t i = 0; i < vals.size(); ++i) {
            if (vals[i] == 0.0)
                continue;
            int e = 0;
            (void)std::frexp(std::fabs(vals[i]), &e);
            if (block.sharedExp - (e - 1) <= 13) {
                EXPECT_DOUBLE_EQ(block.valueAt(i), vals[i])
                    << "element " << i;
            }
        }
    }
}

TEST(PreAlign, NarrowDatapathLosesSmallValues)
{
    // With only 8 fraction bits, a value 2^-9 below the max vanishes.
    const auto block = preAlign({1.0, std::ldexp(1.0, -9)},
                                ActFormat::FP16, 8);
    EXPECT_DOUBLE_EQ(block.valueAt(0), 1.0);
    EXPECT_DOUBLE_EQ(block.valueAt(1), 0.0);
}

TEST(PreAlign, TruncateVsRneRounding)
{
    // Second value scales to exactly 1.5 on a 5-fraction-bit datapath:
    // truncation floors to 1, RNE resolves the tie upward to 2.
    const std::vector<double> vals = {1.0, 0.046875};
    const auto trunc = preAlign(vals, ActFormat::FP16, 5,
                                AlignRounding::Truncate);
    const auto rne = preAlign(vals, ActFormat::FP16, 5,
                              AlignRounding::NearestEven);
    EXPECT_LE(trunc.mantissas[1], rne.mantissas[1]);
    EXPECT_EQ(trunc.mantissas[1], 1);  // floor(1.5) = 1
    EXPECT_EQ(rne.mantissas[1], 2);    // RNE(1.5) = 2
}

TEST(PreAlign, SharedExpTracksMaximum)
{
    const auto block = preAlign({0.25, -64.0, 3.0}, ActFormat::FP16, 24);
    EXPECT_EQ(block.sharedExp, 6); // 64 = 2^6
}

TEST(PreAlign, RejectsNonFinite)
{
    EXPECT_THROW(preAlign({1.0, 1e9}, ActFormat::FP16, 24), FatalError);
    // (1e9 overflows fp16 to inf)
}

TEST(PreAlign, RejectsBadFracBits)
{
    EXPECT_THROW(preAlign({1.0}, ActFormat::FP16, 1), FatalError);
    EXPECT_THROW(preAlign({1.0}, ActFormat::FP16, 61), FatalError);
}

TEST(AlignedDot, MatchesDoubleDotExactly)
{
    Rng rng(42);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<double> vals(32);
        for (auto &v : vals)
            v = quantizeToFormat(rng.normal(0.0, 1.0), ActFormat::FP16);
        const auto block = preAlign(vals, ActFormat::FP16, 24);

        std::vector<int32_t> w(32);
        for (auto &wi : w)
            wi = static_cast<int32_t>(rng.uniformInt(-8, 7));

        double expect = 0.0;
        for (std::size_t i = 0; i < vals.size(); ++i)
            expect += block.valueAt(i) * w[i];
        EXPECT_DOUBLE_EQ(alignedDot(block, w), expect);
    }
}

TEST(AlignedDot, LengthMismatchPanics)
{
    const auto block = preAlign({1.0, 2.0}, ActFormat::FP16, 24);
    EXPECT_THROW(alignedDot(block, {1}), PanicError);
}

TEST(AlignedSignedSum, MatchesManualSum)
{
    const auto block = preAlign({1.0, 2.0, 4.0}, ActFormat::FP16, 24);
    const auto sum = alignedSignedSum(block, {1, -1, 1});
    EXPECT_DOUBLE_EQ(static_cast<double>(sum) * block.scale(), 3.0);
}

TEST(AlignedSignedSum, RejectsBadSigns)
{
    const auto block = preAlign({1.0}, ActFormat::FP16, 24);
    EXPECT_THROW(alignedSignedSum(block, {0}), PanicError);
}

/**
 * The libm formulation of preAlign() that preAlignInto() replaced,
 * copied verbatim as the oracle: a defensive re-quantization into a
 * scratch vector, ldexp for the shift, and floor/fmod for the
 * ties-to-even rounding.
 */
AlignedBlock
oraclePreAlign(const std::vector<double> &values, ActFormat fmt,
               int frac_bits, AlignRounding rounding)
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

/**
 * One activation drawn for the oracle test. The block maximum is
 * 2^top, so kind 1 lands exactly on a shift-out tie and kind 2 one
 * quantum off it; the rest cover random magnitudes, signed zeros,
 * FP16 subnormals, and values that round to zero in the format.
 */
double
drawAlignValue(Rng &rng, int top, int frac_bits)
{
    const double sign = rng.uniformInt(0, 1) == 1 ? -1.0 : 1.0;
    const double odd = static_cast<double>(2 * rng.uniformInt(0, 40) + 1);
    switch (rng.uniformInt(0, 6)) {
      case 0: {
        const int below = static_cast<int>(rng.uniformInt(0, 30));
        return rng.normal() * std::ldexp(1.0, top - below);
      }
      case 1: // (k + 1/2) quanta: an exact tie when fmt can hold it
        return sign * odd * std::ldexp(1.0, top - frac_bits - 1);
      case 2:
        return sign * (odd * std::ldexp(1.0, top - frac_bits - 1) +
                       std::ldexp(1.0, top - frac_bits - 12));
      case 3:
        return sign * 0.0;
      case 4: // FP16 subnormals: k * 2^-24
        return sign * static_cast<double>(rng.uniformInt(1, 1023)) *
               std::ldexp(1.0, -24);
      case 5:
        return sign * 1e-300;
      default:
        return sign * std::ldexp(1.0, top);
    }
}

TEST(PreAlign, CoreMatchesFloorFmodOracle)
{
    Rng rng(4400);
    const AlignRounding roundings[] = {AlignRounding::Truncate,
                                       AlignRounding::NearestEven};
    std::size_t ties = 0;
    for (const auto fmt : kAllActFormats) {
        for (int fb = 2; fb <= 60; ++fb) {
            for (const auto rounding : roundings) {
                for (int trial = 0; trial < 6; ++trial) {
                    const auto count =
                        static_cast<std::size_t>(rng.uniformInt(1, 40));
                    const auto stride =
                        static_cast<std::size_t>(rng.uniformInt(1, 3));
                    // FP16 tops stay below 2^13 so no draw overflows.
                    const int top = static_cast<int>(
                        fmt == ActFormat::FP16 ? rng.uniformInt(-14, 12)
                                               : rng.uniformInt(-60, 60));
                    // Trial 0 is an all-zero group of signed zeros.
                    std::vector<double> vals(count);
                    for (auto &v : vals)
                        v = trial == 0
                                ? (rng.uniformInt(0, 1) == 1 ? -0.0 : 0.0)
                                : drawAlignValue(rng, top, fb);
                    const std::string what =
                        actFormatName(fmt) + " fracBits " +
                        std::to_string(fb) + " rounding " +
                        std::to_string(static_cast<int>(rounding)) +
                        " trial " + std::to_string(trial);

                    const AlignedBlock want =
                        oraclePreAlign(vals, fmt, fb, rounding);
                    // The core reads a strided column: interleave the
                    // block with poison that must never be read.
                    std::vector<double> strided(
                        count * stride,
                        std::numeric_limits<double>::quiet_NaN());
                    for (std::size_t i = 0; i < count; ++i)
                        strided[i * stride] = vals[i];
                    std::vector<int64_t> got(count, -7);
                    const AlignHeader header =
                        preAlignInto(strided.data(), count, stride, fmt,
                                     fb, rounding, got.data());
                    EXPECT_EQ(got, want.mantissas) << what;
                    EXPECT_EQ(header.sharedExp, want.sharedExp) << what;
                    EXPECT_EQ(header.allZero, want.allZero) << what;
                    EXPECT_EQ(alignScale(header.sharedExp, fb),
                              want.scale())
                        << what;

                    const AlignedBlock wrapped =
                        preAlign(vals, fmt, fb, rounding);
                    EXPECT_EQ(wrapped.mantissas, want.mantissas) << what;
                    EXPECT_EQ(wrapped.sharedExp, want.sharedExp) << what;
                    EXPECT_EQ(wrapped.allZero, want.allZero) << what;
                    EXPECT_EQ(wrapped.scale(), want.scale()) << what;

                    // Count the exact shift-out ties the draw produced.
                    for (const double v : vals) {
                        const double q = quantizeToFormat(v, fmt);
                        if (want.allZero || q == 0.0)
                            continue;
                        const double scaled =
                            std::ldexp(q, fb - want.sharedExp);
                        if (scaled - std::floor(scaled) == 0.5)
                            ++ties;
                    }
                }
            }
        }
    }
    // The tie path is the one floor/fmod and the new rounding could
    // disagree on; make sure the draw exercised it.
    EXPECT_GT(ties, 500u);

    int64_t slot = 0;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {inf, -inf, nan})
        EXPECT_THROW(preAlignInto(&bad, 1, 1, ActFormat::FP32, 24,
                                  AlignRounding::NearestEven, &slot),
                     FatalError);
    const double one = 1.0;
    EXPECT_THROW(preAlignInto(&one, 1, 1, ActFormat::FP16, 1,
                              AlignRounding::NearestEven, &slot),
                 FatalError);
    EXPECT_THROW(preAlignInto(&one, 1, 1, ActFormat::FP16, 61,
                              AlignRounding::NearestEven, &slot),
                 FatalError);
}

TEST(PreAlign, WorksForAllFormats)
{
    Rng rng(43);
    for (const auto fmt : kAllActFormats) {
        std::vector<double> vals(8);
        for (auto &v : vals)
            v = quantizeToFormat(rng.normal(0.0, 1.0), fmt);
        const auto block = preAlign(vals, fmt, 30);
        for (std::size_t i = 0; i < vals.size(); ++i) {
            EXPECT_NEAR(block.valueAt(i), vals[i],
                        std::ldexp(std::fabs(vals[i]) + 1.0, -20))
                << actFormatName(fmt);
        }
    }
}

} // namespace
} // namespace figlut
