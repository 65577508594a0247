/** @file Tests for the tree LUT generator (paper Fig. 11). */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lut_generator.h"

namespace figlut {
namespace {

TEST(GeneratorCount, PaperNumbersForMuFour)
{
    const auto s = lutGeneratorAdderCount(4);
    EXPECT_EQ(s.upperAdds, 2u);
    EXPECT_EQ(s.lowerAdds, 4u);
    EXPECT_EQ(s.combineAdds, 8u);
    EXPECT_EQ(s.treeAdds, 14u);   // paper: "requires 14 additions"
    EXPECT_EQ(s.naiveAdds, 24u);  // 2^(mu-1) * (mu-1)
    EXPECT_NEAR(s.savingRatio, 0.42, 0.005); // paper: 42% reduction
}

TEST(GeneratorCount, SmallMuCases)
{
    const auto s2 = lutGeneratorAdderCount(2);
    EXPECT_EQ(s2.treeAdds, 2u);
    EXPECT_EQ(s2.naiveAdds, 2u);
    EXPECT_DOUBLE_EQ(s2.savingRatio, 0.0);

    const auto s3 = lutGeneratorAdderCount(3);
    EXPECT_EQ(s3.treeAdds, 6u);
    EXPECT_EQ(s3.naiveAdds, 8u);
    EXPECT_NEAR(s3.savingRatio, 0.25, 1e-12);
}

TEST(GeneratorCount, SavingsGrowWithMu)
{
    double prev = -1.0;
    for (int mu = 2; mu <= 8; ++mu) {
        const auto s = lutGeneratorAdderCount(mu);
        EXPECT_LE(s.treeAdds, s.naiveAdds);
        EXPECT_GE(s.savingRatio, prev) << "mu=" << mu;
        prev = s.savingRatio;
    }
}

TEST(GeneratorCount, BeatsPerRacAddersBeyondKFour)
{
    // Paper: for k > 4 the generator performs fewer additions than
    // straightforward hardware with k RACs (mu=4: 14 vs k*(mu-1)).
    const auto s = lutGeneratorAdderCount(4);
    EXPECT_GT(s.treeAdds, 4u * 3u);  // k=4: generator loses
    EXPECT_LT(s.treeAdds, 5u * 3u);  // k=5: generator wins
}

/** Property: tree-generated tables equal direct enumeration. */
class GeneratorMuSweep : public ::testing::TestWithParam<int>
{};

TEST_P(GeneratorMuSweep, ExactModeEqualsDirect)
{
    const int mu = GetParam();
    Rng rng(401 + static_cast<uint64_t>(mu));
    const LutGenerator gen(mu, FpArith::Exact);
    for (int trial = 0; trial < 20; ++trial) {
        const auto xs = rng.normalVector(static_cast<std::size_t>(mu));
        const auto tree = gen.generateHalf(xs);
        const auto direct = HalfLutD::buildDirect(xs, FpArith::Exact);
        for (uint32_t key = 0; key < lutEntries(mu); ++key)
            EXPECT_NEAR(tree.value(key), direct.value(key), 1e-12)
                << "mu=" << mu << " key=" << key;
    }
}

TEST_P(GeneratorMuSweep, IntegerModeEqualsDirectExactly)
{
    const int mu = GetParam();
    Rng rng(501 + static_cast<uint64_t>(mu));
    const LutGenerator gen(mu, FpArith::Exact);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<int64_t> xs(static_cast<std::size_t>(mu));
        for (auto &x : xs)
            x = rng.uniformInt(-1000000, 1000000);
        const auto tree = gen.generateHalfInt(xs);
        const auto direct = HalfLutI::buildDirect(xs);
        for (uint32_t key = 0; key < lutEntries(mu); ++key)
            EXPECT_EQ(tree.value(key), direct.value(key))
                << "mu=" << mu << " key=" << key;
    }
}

INSTANTIATE_TEST_SUITE_P(Mu, GeneratorMuSweep,
                         ::testing::Range(2, kMaxMu + 1));

TEST(Generator, Fp32ModeStaysWithinOneUlpOfDirect)
{
    // Different add orders round differently, but only in the last
    // place for a 4-term sum.
    Rng rng(411);
    const LutGenerator gen(4, FpArith::Fp32);
    for (int trial = 0; trial < 200; ++trial) {
        const auto xs = rng.normalVector(4);
        // Cancellation can make the result tiny while intermediate
        // rounding is at the scale of the operands, so the bound is in
        // ulps of the operand magnitude sum.
        double mag = 0.0;
        for (const double x : xs)
            mag += std::abs(x);
        const auto tree = gen.generateHalf(xs);
        const auto direct = HalfLutD::buildDirect(xs, FpArith::Fp32);
        for (uint32_t key = 0; key < 16; ++key) {
            const double t = tree.value(key);
            const double d = direct.value(key);
            EXPECT_NEAR(t, d, mag * 2.4e-7 + 1e-30);
        }
    }
}

TEST(Generator, WrongInputLengthPanics)
{
    const LutGenerator gen(4, FpArith::Exact);
    EXPECT_THROW(gen.generateHalf({1.0, 2.0}), PanicError);
    EXPECT_THROW(gen.generateHalfInt({1, 2, 3}), PanicError);
}

TEST(Generator, StatsAccessorMatchesStandalone)
{
    const LutGenerator gen(6, FpArith::Exact);
    const auto s = lutGeneratorAdderCount(6);
    EXPECT_EQ(gen.stats().treeAdds, s.treeAdds);
    EXPECT_EQ(gen.mu(), 6);
}

} // namespace
} // namespace figlut
