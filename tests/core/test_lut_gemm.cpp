/** @file Tests for the functional LUT-GEMM kernel. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/engine_numerics.h"
#include "core/lut_gemm.h"
#include "model/synthetic.h"
#include "quant/uniform_to_bcq.h"

namespace figlut {
namespace {

struct TestCase
{
    BcqTensor weights;
    MatrixD x;
    MatrixD dequant;
};

TestCase
makeCase(std::size_t m, std::size_t n, std::size_t batch, int bits,
         std::size_t group, bool offset, uint64_t seed)
{
    Rng rng(seed);
    TestCase tc;
    const auto w = syntheticWeights(m, n, rng);
    BcqConfig cfg;
    cfg.bits = bits;
    cfg.groupSize = group;
    cfg.useOffset = offset;
    cfg.iterations = 3;
    tc.weights = quantizeBcq(w, cfg);
    tc.x = syntheticActivations(n, batch, rng);
    tc.dequant = tc.weights.dequantAll();
    return tc;
}

TEST(LutGemm, ExactModeMatchesOracle)
{
    const auto tc = makeCase(8, 24, 3, 3, 0, true, 601);
    LutGemmConfig cfg;
    cfg.mu = 4;
    cfg.arith = FpArith::Exact;
    cfg.actFormat = ActFormat::FP32;
    const auto y = lutGemm(tc.weights, tc.x, cfg);

    // Oracle on format-quantized inputs.
    MatrixD xq(tc.x.rows(), tc.x.cols());
    for (std::size_t i = 0; i < tc.x.size(); ++i)
        xq.at(i) = quantizeToFormat(tc.x.at(i), ActFormat::FP32);
    const auto oracle = oracleGemm(tc.dequant, xq);

    const auto err = compareMatrices(y, oracle);
    EXPECT_LT(err.maxRel, 1e-10);
}

/** Property: every mu produces the same (near-oracle) result. */
class LutGemmMuSweep : public ::testing::TestWithParam<int>
{};

TEST_P(LutGemmMuSweep, MuInvariance)
{
    const int mu = GetParam();
    const auto tc = makeCase(6, 40, 2, 2, 0, true,
                             700 + static_cast<uint64_t>(mu));
    LutGemmConfig cfg;
    cfg.mu = mu;
    cfg.arith = FpArith::Exact;
    cfg.actFormat = ActFormat::FP32;
    const auto y = lutGemm(tc.weights, tc.x, cfg);

    MatrixD xq(tc.x.rows(), tc.x.cols());
    for (std::size_t i = 0; i < tc.x.size(); ++i)
        xq.at(i) = quantizeToFormat(tc.x.at(i), ActFormat::FP32);
    const auto oracle = oracleGemm(tc.dequant, xq);
    EXPECT_LT(compareMatrices(y, oracle).maxRel, 1e-9) << "mu=" << mu;
}

INSTANTIATE_TEST_SUITE_P(Mu, LutGemmMuSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(LutGemm, HalfLutEqualsFullLut)
{
    const auto tc = makeCase(8, 32, 4, 3, 16, true, 602);
    for (const bool pre_aligned : {false, true}) {
        LutGemmConfig half_cfg;
        half_cfg.useHalfLut = true;
        half_cfg.preAligned = pre_aligned;
        LutGemmConfig full_cfg = half_cfg;
        full_cfg.useHalfLut = false;
        const auto a = lutGemm(tc.weights, tc.x, half_cfg);
        const auto b = lutGemm(tc.weights, tc.x, full_cfg);
        EXPECT_TRUE(compareMatrices(a, b).identical)
            << "preAligned=" << pre_aligned;
    }
}

TEST(LutGemm, GeneratorTreeEqualsDirectInIntegerPath)
{
    const auto tc = makeCase(8, 32, 2, 2, 0, true, 603);
    LutGemmConfig tree_cfg;
    tree_cfg.preAligned = true;
    tree_cfg.useGeneratorTree = true;
    LutGemmConfig direct_cfg = tree_cfg;
    direct_cfg.useGeneratorTree = false;
    const auto a = lutGemm(tc.weights, tc.x, tree_cfg);
    const auto b = lutGemm(tc.weights, tc.x, direct_cfg);
    EXPECT_TRUE(compareMatrices(a, b).identical);
}

TEST(LutGemm, PreAlignedMatchesIfpuBitExactly)
{
    // FIGLUT-I and iFPU share numerics by construction.
    const auto tc = makeCase(12, 64, 4, 3, 32, true, 604);
    NumericsConfig nc;
    nc.actFormat = ActFormat::FP16;
    const auto ifpu = ifpuGemm(tc.weights, tc.x, nc);
    const auto figlut = figlutGemm(tc.weights, tc.x, nc, true);
    EXPECT_TRUE(compareMatrices(figlut, ifpu).identical);
}

TEST(LutGemm, TailPaddingCorrect)
{
    // n = 37 is not divisible by mu = 4: the tail chunk must still be
    // exact (padding contributes zero).
    const auto tc = makeCase(4, 37, 2, 2, 0, true, 605);
    LutGemmConfig cfg;
    cfg.arith = FpArith::Exact;
    cfg.actFormat = ActFormat::FP32;
    const auto y = lutGemm(tc.weights, tc.x, cfg);

    MatrixD xq(tc.x.rows(), tc.x.cols());
    for (std::size_t i = 0; i < tc.x.size(); ++i)
        xq.at(i) = quantizeToFormat(tc.x.at(i), ActFormat::FP32);
    const auto oracle = oracleGemm(tc.dequant, xq);
    EXPECT_LT(compareMatrices(y, oracle).maxRel, 1e-9);
}

TEST(LutGemm, GroupWiseScalesHandled)
{
    const auto tc = makeCase(6, 48, 2, 2, 12, true, 606);
    LutGemmConfig cfg;
    cfg.arith = FpArith::Exact;
    cfg.actFormat = ActFormat::FP32;
    const auto y = lutGemm(tc.weights, tc.x, cfg);

    MatrixD xq(tc.x.rows(), tc.x.cols());
    for (std::size_t i = 0; i < tc.x.size(); ++i)
        xq.at(i) = quantizeToFormat(tc.x.at(i), ActFormat::FP32);
    const auto oracle = oracleGemm(tc.dequant, xq);
    EXPECT_LT(compareMatrices(y, oracle).maxRel, 1e-9);
}

TEST(LutGemm, UniformConvertedWeightsMatchRtnOracle)
{
    // A uniform-quantized matrix converted to BCQ must produce the
    // uniform dequant GEMM result (the Fig. 1 / Table I claim).
    Rng rng(607);
    const auto w = syntheticWeights(8, 32, rng);
    RtnConfig rcfg;
    rcfg.bits = 4;
    const auto rtn = quantizeRtn(w, rcfg);
    const auto bcq = uniformToBcq(rtn);
    const auto x = syntheticActivations(32, 3, rng);

    LutGemmConfig cfg;
    cfg.arith = FpArith::Exact;
    cfg.actFormat = ActFormat::FP32;
    const auto y = lutGemm(bcq, x, cfg);

    MatrixD xq(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i)
        xq.at(i) = quantizeToFormat(x.at(i), ActFormat::FP32);
    const auto oracle = oracleGemm(rtn.dequantAll(), xq);
    EXPECT_LT(compareMatrices(y, oracle).maxRel, 1e-9);
}

TEST(LutGemm, CountersTally)
{
    const auto tc = makeCase(4, 32, 2, 3, 0, true, 608);
    LutGemmConfig cfg;
    cfg.mu = 4;
    LutGemmCounters counters;
    (void)lutGemm(tc.weights, tc.x, cfg, &counters);
    // 32/4 = 8 chunks per column, 2 columns -> 16 builds.
    EXPECT_EQ(counters.lutGenerations, 16u);
    EXPECT_EQ(counters.generatorAdds, 16u * 14u);
    // reads: rows(4) * planes(3) * chunks(8) * batch(2)
    EXPECT_EQ(counters.lutReads, 4u * 3 * 8 * 2);
    EXPECT_EQ(counters.racAccumulates, counters.lutReads);
    // scale muls: rows * planes * groups(1) * batch
    EXPECT_EQ(counters.scaleMuls, 4u * 3 * 2);
    EXPECT_EQ(counters.offsetOps, 4u * 2);
}

TEST(LutGemm, ShapeMismatchThrows)
{
    const auto tc = makeCase(4, 16, 1, 2, 0, false, 609);
    MatrixD bad(8, 1, 0.0);
    EXPECT_THROW(lutGemm(tc.weights, bad, LutGemmConfig{}), FatalError);
}

TEST(LutGemm, InvalidMuThrows)
{
    const auto tc = makeCase(2, 8, 1, 1, 0, false, 610);
    LutGemmConfig cfg;
    cfg.mu = 0;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg), FatalError);
    cfg.mu = 1;
    cfg.useHalfLut = true;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg), FatalError);
}

TEST(LutGemm, ValidateConfigReportsEachBadKnob)
{
    // The Status validator is the recoverable form of the kernel's
    // own entry checks; each knob violation must carry its code and
    // an actionable message.
    LutGemmConfig cfg;
    EXPECT_TRUE(validateLutGemmConfig(cfg).ok());

    cfg.mu = 0;
    auto s = validateLutGemmConfig(cfg);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("mu"), std::string::npos);
    cfg.mu = kMaxMu + 1;
    EXPECT_FALSE(validateLutGemmConfig(cfg).ok());

    cfg = LutGemmConfig{};
    cfg.mu = 1;
    cfg.useHalfLut = true;
    s = validateLutGemmConfig(cfg);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("mu >= 2"), std::string::npos);
    cfg.useHalfLut = false;
    EXPECT_TRUE(validateLutGemmConfig(cfg).ok());

    cfg = LutGemmConfig{};
    cfg.backend = LutGemmBackend::Simd;
    cfg.blockRows = 0;
    s = validateLutGemmConfig(cfg);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("blockRows"), std::string::npos);
    // The Reference backend never blocks rows; the knob is ignored.
    cfg.backend = LutGemmBackend::Reference;
    EXPECT_TRUE(validateLutGemmConfig(cfg).ok());

    cfg = LutGemmConfig{};
    cfg.preAligned = true;
    for (const int fracBits : {kMinAlignFracBits - 1, kMaxAlignFracBits + 1}) {
        cfg.alignFracBits = fracBits;
        s = validateLutGemmConfig(cfg);
        EXPECT_EQ(s.code(), StatusCode::InvalidArgument) << fracBits;
        EXPECT_NE(s.message().find("alignFracBits"), std::string::npos);
    }
    cfg.alignFracBits = kMaxAlignFracBits;
    EXPECT_TRUE(validateLutGemmConfig(cfg).ok());
    // Mantissas reach 2^(f + 1), so a 512-column group sums to 2^(f +
    // 10): f = 52 is the widest that stays inside int64. Reference
    // outputs of a 16 x 512 q4 tensor were off by up to 39 at f = 56,
    // 58 and 60 before the check.
    for (const int fracBits : {53, 56, 58, 60}) {
        cfg.alignFracBits = fracBits;
        s = validateLutGemmConfig(cfg, 512);
        EXPECT_EQ(s.code(), StatusCode::InvalidArgument) << fracBits;
        EXPECT_NE(s.message().find("alignFracBits"), std::string::npos);
        EXPECT_NE(s.message().find("512-column"), std::string::npos);
    }
    cfg.alignFracBits = 52;
    EXPECT_TRUE(validateLutGemmConfig(cfg, 512).ok());
    EXPECT_FALSE(validateLutGemmConfig(cfg, 513).ok());
    // The FP path never aligns; the knob is ignored.
    cfg.preAligned = false;
    cfg.alignFracBits = kMaxAlignFracBits + 1;
    EXPECT_TRUE(validateLutGemmConfig(cfg).ok());
    cfg.alignFracBits = 60;
    EXPECT_TRUE(validateLutGemmConfig(cfg, 512).ok());

    cfg = LutGemmConfig{};
    cfg.threads = kMaxLutGemmThreads + 1;
    s = validateLutGemmConfig(cfg);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("threads"), std::string::npos);
    cfg.threads = kMaxLutGemmThreads;
    EXPECT_TRUE(validateLutGemmConfig(cfg).ok());
}

TEST(LutGemm, RejectsAlignFracBitsThatOverflowTheGroupSums)
{
    // One 512-column group: f = 52 is exact, f = 56 used to wrap.
    Rng rng(31);
    const auto w = syntheticWeights(16, 512, rng);
    BcqConfig bc;
    bc.bits = 4;
    bc.groupSize = 0;
    bc.useOffset = true;
    const BcqTensor t = quantizeBcq(w, bc);
    const MatrixD x = syntheticActivations(512, 2, rng);
    LutGemmConfig fp;
    const MatrixD want = lutGemm(t, x, fp);
    for (const auto backend :
         {LutGemmBackend::Reference, LutGemmBackend::Simd}) {
        LutGemmConfig cfg;
        cfg.preAligned = true;
        cfg.backend = backend;
        cfg.alignFracBits = 52;
        const MatrixD got = lutGemm(t, x, cfg);
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_NEAR(got.data()[i], want.data()[i],
                        1e-2 * (1.0 + std::fabs(want.data()[i])))
                << i;
        cfg.alignFracBits = 56;
        EXPECT_THROW(lutGemm(t, x, cfg), FatalError);
    }
}

TEST(LutGemm, BackendNamesCodesAndParsingRoundTrip)
{
    for (const auto backend :
         {LutGemmBackend::Reference, LutGemmBackend::Simd}) {
        LutGemmBackend parsed = LutGemmBackend::Reference;
        EXPECT_TRUE(parseLutGemmBackend(lutGemmBackendName(backend),
                                        &parsed));
        EXPECT_EQ(parsed, backend);
    }
    EXPECT_STREQ(lutGemmBackendName(LutGemmBackend::Reference),
                 "reference");
    EXPECT_STREQ(lutGemmBackendName(LutGemmBackend::Simd), "simd");
    // serving_load --json writes these as "gemm_backend"; recorded
    // trajectories depend on them staying put.
    EXPECT_EQ(lutGemmBackendCode(LutGemmBackend::Reference), 0);
    EXPECT_EQ(lutGemmBackendCode(LutGemmBackend::Simd), 3);
    // Retired backends and near-misses are rejected, leaving the
    // output untouched.
    for (const char *name : {"threaded", "packed", "Simd", "", "auto"}) {
        LutGemmBackend parsed = LutGemmBackend::Simd;
        EXPECT_FALSE(parseLutGemmBackend(name, &parsed)) << name;
        EXPECT_EQ(parsed, LutGemmBackend::Simd) << name;
    }
}

TEST(LutGemm, PrePackedKeyMismatchesThrow)
{
    // Every rejection path of the pre-packed overload: they guard
    // against silently misindexed arenas.
    const auto tc = makeCase(6, 24, 2, 3, 0, true, 612);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = 1;
    const auto packed = packLutKeys(tc.weights, cfg.mu);
    EXPECT_NO_THROW(lutGemm(tc.weights, tc.x, cfg, packed));

    // Keys packed for a different mu than the call's.
    const auto wrongMu = packLutKeys(tc.weights, cfg.mu + 1);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, wrongMu), FatalError);

    // Keys packed from a different-shaped tensor.
    const auto other = makeCase(8, 24, 2, 3, 0, true, 613);
    const auto wrongShape = packLutKeys(other.weights, cfg.mu);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, wrongShape), FatalError);

    // Keys packed from a tensor with a different plane count.
    const auto fewerBits = makeCase(6, 24, 2, 2, 0, true, 612);
    const auto wrongBits = packLutKeys(fewerBits.weights, cfg.mu);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, wrongBits), FatalError);

    // Keys packed from a tensor with a different scale-group size.
    const auto grouped = makeCase(6, 24, 2, 3, 8, true, 612);
    const auto wrongGroup = packLutKeys(grouped.weights, cfg.mu);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, wrongGroup), FatalError);

    // Pre-packed keys are a Simd-backend contract: Reference gathers
    // its keys from the bit planes and rejects them.
    cfg.backend = LutGemmBackend::Reference;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, packed), FatalError);
}

/** Format sweep: the FP path respects each activation format. */
class LutGemmFormatSweep : public ::testing::TestWithParam<ActFormat>
{};

TEST_P(LutGemmFormatSweep, CloseToOracleInEachFormat)
{
    const auto fmt = GetParam();
    const auto tc = makeCase(8, 64, 2, 3, 0, true, 611);
    LutGemmConfig cfg;
    cfg.actFormat = fmt;
    cfg.arith = FpArith::Fp32;
    const auto y = lutGemm(tc.weights, tc.x, cfg);

    MatrixD xq(tc.x.rows(), tc.x.cols());
    for (std::size_t i = 0; i < tc.x.size(); ++i)
        xq.at(i) = quantizeToFormat(tc.x.at(i), fmt);
    const auto oracle = oracleGemm(tc.dequant, xq);
    // FP32 accumulation over 64 terms: generous but format-dependent.
    const double tol = fmt == ActFormat::BF16 ? 2e-2 : 1e-3;
    EXPECT_LT(compareMatrices(y, oracle).nrmse(), tol)
        << actFormatName(fmt);
}

INSTANTIATE_TEST_SUITE_P(Fmt, LutGemmFormatSweep,
                         ::testing::Values(ActFormat::FP16,
                                           ActFormat::BF16,
                                           ActFormat::FP32));

} // namespace
} // namespace figlut
