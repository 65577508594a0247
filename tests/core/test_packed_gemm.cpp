/**
 * @file
 * Tests for the packed-key traversal of the Simd LUT-GEMM backend:
 * bit-identity against Reference on tail chunks and odd shapes, the
 * pre-packed key reuse API and its validation, the engine wrapper on
 * the portable scalar span table, and the proof that the closed-form
 * counters equal the Reference backend's per-read counts. The
 * randomized Reference-vs-Simd suite lives in test_simd_gemm.cpp.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine_numerics.h"
#include "core/execution_context.h"
#include "core/lut_gemm.h"
#include "core/simd.h"
#include "model/synthetic.h"
#include "quant/packing.h"

namespace figlut {
namespace {

struct GemmCase
{
    BcqTensor weights;
    MatrixD x;
};

GemmCase
makeCase(std::size_t m, std::size_t n, std::size_t batch, int bits,
         std::size_t group, bool offset, uint64_t seed)
{
    Rng rng(seed);
    GemmCase tc;
    const auto w = syntheticWeights(m, n, rng);
    BcqConfig cfg;
    cfg.bits = bits;
    cfg.groupSize = group;
    cfg.useOffset = offset;
    cfg.iterations = 3;
    tc.weights = quantizeBcq(w, cfg);
    tc.x = syntheticActivations(n, batch, rng);
    return tc;
}

MatrixD
runBackend(const GemmCase &tc, LutGemmConfig cfg, LutGemmBackend backend,
           LutGemmCounters *counters = nullptr)
{
    cfg.backend = backend;
    return lutGemm(tc.weights, tc.x, cfg, counters);
}

TEST(LutGemmPacked, BitIdenticalToReferenceBothPaths)
{
    const auto tc = makeCase(32, 64, 3, 3, 16, true, 1001);
    for (const bool pre : {false, true}) {
        LutGemmConfig cfg;
        cfg.preAligned = pre;
        cfg.threads = 4;
        cfg.blockRows = 8;
        const auto ref = runBackend(tc, cfg, LutGemmBackend::Reference);
        const auto packed = runBackend(tc, cfg, LutGemmBackend::Simd);
        EXPECT_TRUE(compareMatrices(packed, ref).identical)
            << "preAligned=" << pre;
    }
}

TEST(LutGemmPacked, TailChunksAndOddShapes)
{
    // n = 37 with mu = 4 leaves a padded tail chunk; groupSize 10
    // additionally puts a tail chunk in every group.
    for (const std::size_t group : {std::size_t{0}, std::size_t{10}}) {
        const auto tc = makeCase(7, 37, 2, 2, group, true, 1002);
        LutGemmConfig cfg;
        cfg.preAligned = true;
        cfg.blockRows = 3;
        const auto ref = runBackend(tc, cfg, LutGemmBackend::Reference);
        const auto packed = runBackend(tc, cfg, LutGemmBackend::Simd);
        EXPECT_TRUE(compareMatrices(packed, ref).identical)
            << "group=" << group;
    }
}

TEST(LutGemmPacked, PrepackedKeysMatchInternalPacking)
{
    // The FP path on two workers, with one context carrying the
    // arenas across calls (SimdGemm.PrepackedKeysReuse covers the
    // integer path without a context).
    const auto tc = makeCase(24, 48, 2, 3, 12, true, 1004);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.preAligned = false;
    cfg.threads = 2;
    cfg.blockRows = 7;
    const auto packedKeys = packLutKeys(tc.weights, cfg.mu);
    const auto internal = lutGemm(tc.weights, tc.x, cfg);
    // Reuse the same pre-packing across repeated calls.
    ExecutionContext ctx;
    for (int call = 0; call < 2; ++call) {
        const auto reused =
            lutGemm(tc.weights, tc.x, cfg, packedKeys, nullptr, &ctx);
        EXPECT_TRUE(compareMatrices(reused, internal).identical)
            << "call " << call;
    }
}

TEST(LutGemmPacked, PrepackedValidationThrows)
{
    // Mismatched keys are rejected before any work is scheduled: a
    // two-worker call never spawns its context's pool, and the context
    // stays usable for the next, valid call.
    // (LutGemm.PrePackedKeyMismatchesThrow covers every mismatch kind.)
    const auto tc = makeCase(8, 16, 1, 2, 0, false, 1005);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = 2;
    cfg.blockRows = 4;
    ExecutionContext ctx;
    const auto mismatchedMu = packLutKeys(tc.weights, cfg.mu + 1);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, mismatchedMu, nullptr, &ctx),
                 FatalError);

    const auto other = makeCase(9, 16, 1, 2, 0, false, 1006);
    const auto wrongShape = packLutKeys(other.weights, cfg.mu);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, wrongShape, nullptr, &ctx),
                 FatalError);

    // Pre-packed keys only make sense for the Simd backend.
    const auto good = packLutKeys(tc.weights, cfg.mu);
    LutGemmConfig refCfg = cfg;
    refCfg.backend = LutGemmBackend::Reference;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, refCfg, good, nullptr, &ctx),
                 FatalError);
    EXPECT_FALSE(ctx.hasPool());
    EXPECT_EQ(ctx.poolSpawns(), 0u);

    const auto y = lutGemm(tc.weights, tc.x, cfg, good, nullptr, &ctx);
    EXPECT_TRUE(
        compareMatrices(y, runBackend(tc, cfg, LutGemmBackend::Reference))
            .identical);
    EXPECT_EQ(ctx.poolSpawns(), 1u);
}

TEST(LutGemmPacked, InvalidBlockRowsThrows)
{
    // The pre-packed overload validates the tiling knob too
    // (LutGemmThreaded.InvalidBlockRowsThrows covers the other one).
    const auto tc = makeCase(4, 16, 1, 2, 0, false, 1007);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.blockRows = 0;
    const auto packedKeys = packLutKeys(tc.weights, cfg.mu);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, packedKeys), FatalError);
}

// ---------------------------------------- closed-form counter proofs

/**
 * The Reference backend counts per generation and per read (the
 * instrumented counts); the Simd backend's closed-form counters and
 * addLutGemmClosedFormCounters() must equal them over the randomized
 * suite — the differential proof that licenses keeping the increments
 * out of the Simd hot loops.
 */
TEST(LutGemmCounters, ClosedFormMatchesInstrumentedRandomized)
{
    Rng shapes(1008);
    for (int trial = 0; trial < 10; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 50));
        const auto n = static_cast<std::size_t>(shapes.uniformInt(1, 60));
        const auto batch =
            static_cast<std::size_t>(shapes.uniformInt(1, 4));
        const int bits = static_cast<int>(shapes.uniformInt(1, 3));
        const bool grouped = shapes.uniformInt(0, 1) == 1;
        const std::size_t group =
            grouped ? static_cast<std::size_t>(
                          shapes.uniformInt(1, static_cast<int64_t>(n)))
                    : 0;
        const bool offset = shapes.uniformInt(0, 1) == 1;

        LutGemmConfig cfg;
        cfg.mu = static_cast<int>(shapes.uniformInt(1, 6));
        cfg.useHalfLut = cfg.mu >= 2 && shapes.uniformInt(0, 1) == 1;
        cfg.useGeneratorTree = shapes.uniformInt(0, 1) == 1;
        cfg.preAligned = shapes.uniformInt(0, 1) == 1;
        cfg.threads = static_cast<int>(shapes.uniformInt(1, 4));
        cfg.blockRows = static_cast<int>(shapes.uniformInt(1, 16));

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 1200 + static_cast<uint64_t>(trial));
        LutGemmCounters perRead, closed, standalone;
        (void)runBackend(tc, cfg, LutGemmBackend::Reference, &perRead);
        (void)runBackend(tc, cfg, LutGemmBackend::Simd, &closed);
        addLutGemmClosedFormCounters(tc.weights, cfg, batch, standalone);
        const std::string what = "trial " + std::to_string(trial) +
                                 " mu " + std::to_string(cfg.mu) +
                                 " blockRows " +
                                 std::to_string(cfg.blockRows);
        EXPECT_GT(perRead.lutReads, 0u) << what;
        EXPECT_EQ(closed, perRead) << what;
        EXPECT_EQ(standalone, perRead) << what;
    }
}

TEST(LutGemmCounters, PackedBuildsEachLutSetExactlyOnce)
{
    // The Simd backend must report batch x totalChunks LUT generations
    // no matter how many row tiles execute: 32 rows / blockRows 4 = 8
    // tiles here.
    const auto tc = makeCase(32, 64, 2, 3, 0, true, 1009);
    LutGemmConfig cfg;
    cfg.mu = 4;
    cfg.blockRows = 4;
    cfg.threads = 4;

    LutGemmCounters ref, packed;
    (void)runBackend(tc, cfg, LutGemmBackend::Reference, &ref);
    (void)runBackend(tc, cfg, LutGemmBackend::Simd, &packed);

    // 64 cols / mu 4 = 16 chunks, 2 columns -> 32 sets.
    EXPECT_EQ(ref.lutGenerations, 32u);
    // Row-space work is traversal-invariant too.
    EXPECT_EQ(packed, ref);
}

/**
 * Regression for the counter-ordering bug: generatorAdds used to be
 * sampled from the generator stats *before* the first generation ran.
 * With exactly one LUT generation the counter must already carry that
 * generation's tree adds.
 */
TEST(LutGemmCounters, GeneratorAddsAttributedAfterFirstGeneration)
{
    // n = mu = 4, batch 1, one group: exactly one LUT generation.
    const auto tc = makeCase(2, 4, 1, 1, 0, false, 1010);
    LutGemmConfig cfg;
    cfg.mu = 4;
    cfg.useGeneratorTree = true;
    LutGemmCounters cnt; // Reference: per-read counts
    (void)lutGemm(tc.weights, tc.x, cfg, &cnt);
    EXPECT_EQ(cnt.lutGenerations, 1u);
    EXPECT_EQ(cnt.generatorAdds, lutGeneratorAdderCount(4).treeAdds);
}

TEST(LutGemmCounters, GeneratorAddsScaleWithGenerations)
{
    // Multi-chunk, multi-plane, multi-column: every generation must
    // contribute exactly one tree's worth of adds.
    const auto tc = makeCase(4, 24, 3, 2, 8, true, 1011);
    for (const auto backend :
         {LutGemmBackend::Reference, LutGemmBackend::Simd}) {
        LutGemmConfig cfg;
        cfg.mu = 4;
        cfg.useGeneratorTree = true;
        LutGemmCounters cnt;
        (void)runBackend(tc, cfg, backend, &cnt);
        // 3 groups x 2 chunks x 3 columns = 18 generations.
        EXPECT_EQ(cnt.lutGenerations, 18u) << lutGemmBackendName(backend);
        EXPECT_EQ(cnt.generatorAdds,
                  18u * lutGeneratorAdderCount(4).treeAdds)
            << lutGemmBackendName(backend);
    }
}

TEST(LutGemmPacked, EngineNumericsPlumbsPackedBackend)
{
    // With the dispatcher pinned to the scalar span table (the
    // portable packed-key path on hosts without a vector ISA), a Simd
    // lutGemm call with the FIGLUT engine wrapper's numerics stays
    // bit-identical to the wrapper, and its closed-form counters equal
    // the wrapper's per-read counts.
    const auto tc = makeCase(12, 40, 3, 3, 20, true, 1012);
    struct ScalarIsaGuard
    {
        ScalarIsaGuard() { setSimdIsaOverride(SimdIsa::Scalar); }
        ~ScalarIsaGuard() { clearSimdIsaOverride(); }
    } scalar;
    const NumericsConfig nc;
    for (const bool pre : {false, true}) {
        LutGemmConfig packed;
        packed.mu = nc.mu;
        packed.actFormat = nc.actFormat;
        packed.arith = nc.accum;
        packed.alignFracBits = nc.alignFracBits;
        packed.preAligned = pre;
        packed.threads = 2;
        LutGemmCounters refCnt, packedCnt;
        const auto a = figlutGemm(tc.weights, tc.x, nc, pre, &refCnt);
        const auto b =
            runBackend(tc, packed, LutGemmBackend::Simd, &packedCnt);
        const std::string what = "pre=" + std::to_string(pre);
        EXPECT_TRUE(compareMatrices(a, b).identical) << what;
        EXPECT_GT(packedCnt.lutReads, 0u) << what;
        EXPECT_EQ(packedCnt, refCnt) << what;
    }
}

} // namespace
} // namespace figlut
