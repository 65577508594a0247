/**
 * @file
 * Tests for ExecutionContext reuse: the persistent pool is spawned
 * once and ratchets up, the typed workspace slot persists by type, and
 * lutGemm produces bit-identical results with a shared context vs
 * fresh per-call resources — across repeated calls, interleaved
 * shapes, and all backends.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/execution_context.h"
#include "core/lut_gemm.h"
#include "model/synthetic.h"
#include "quant/packing.h"

namespace figlut {
namespace {

BcqTensor
makeTensor(std::size_t m, std::size_t n, int bits, std::size_t group,
           bool offset, uint64_t seed)
{
    Rng rng(seed);
    const auto w = syntheticWeights(m, n, rng);
    BcqConfig cfg;
    cfg.bits = bits;
    cfg.groupSize = group;
    cfg.useOffset = offset;
    cfg.iterations = 1;
    return quantizeBcq(w, cfg);
}

TEST(ExecutionContext, PoolIsSpawnedOnceAndReused)
{
    ExecutionContext ctx(2);
    EXPECT_FALSE(ctx.hasPool());
    EXPECT_EQ(ctx.poolSpawns(), 0u);

    ThreadPool &first = ctx.pool();
    EXPECT_TRUE(ctx.hasPool());
    EXPECT_EQ(ctx.poolThreads(), 2);
    EXPECT_EQ(ctx.poolSpawns(), 1u);

    // Same-or-smaller requests reuse the live pool.
    EXPECT_EQ(&ctx.pool(2), &first);
    EXPECT_EQ(&ctx.pool(1), &first);
    EXPECT_EQ(&ctx.pool(0), &first);
    EXPECT_EQ(ctx.poolSpawns(), 1u);

    // A larger request replaces it, and the size ratchets up.
    ThreadPool &grown = ctx.pool(4);
    EXPECT_EQ(ctx.poolThreads(), 4);
    EXPECT_EQ(ctx.poolSpawns(), 2u);
    EXPECT_EQ(&ctx.pool(3), &grown);
    EXPECT_EQ(ctx.poolSpawns(), 2u);
}

TEST(ExecutionContext, PoolDefaultsToHardwareConcurrency)
{
    ExecutionContext ctx; // threads <= 0 = auto
    EXPECT_EQ(ctx.threads(), 0);
    ThreadPool &pool = ctx.pool();
    EXPECT_GE(pool.threadCount(), 1);
    EXPECT_EQ(pool.threadCount(), resolveThreadCount(0));
}

TEST(ExecutionContext, PoolExecutesWorkAfterReuse)
{
    ExecutionContext ctx(3);
    for (int round = 0; round < 3; ++round) {
        std::vector<int> hits(64, 0);
        ctx.pool().parallelForBlocked(hits.size(), 8,
                                      [&](BlockRange r) {
                                          for (std::size_t i = r.begin;
                                               i < r.end; ++i)
                                              hits[i] += 1;
                                      });
        for (const int h : hits)
            EXPECT_EQ(h, 1);
    }
    EXPECT_EQ(ctx.poolSpawns(), 1u);
}

TEST(ExecutionContext, WorkspacePersistsByTypeAndResetsOnSwitch)
{
    ExecutionContext ctx;
    auto &vec = ctx.workspace<std::vector<double>>();
    EXPECT_TRUE(vec.empty());
    vec.push_back(1.5);
    // Same type: same object, contents preserved.
    EXPECT_EQ(&ctx.workspace<std::vector<double>>(), &vec);
    EXPECT_EQ(ctx.workspace<std::vector<double>>().size(), 1u);

    // Different type: previous workspace destroyed, fresh object.
    auto &ints = ctx.workspace<std::vector<int>>();
    EXPECT_TRUE(ints.empty());

    // Switching back also starts fresh.
    EXPECT_TRUE(ctx.workspace<std::vector<double>>().empty());
}

TEST(ExecutionContext, SharedContextMatchesFreshResourcesAllBackends)
{
    // Two interleaved shapes through one context: results must equal
    // the per-call-resource path bit-for-bit on every backend, call
    // after call (the workspace carries state between them).
    const auto big = makeTensor(48, 64, 3, 16, true, 42);
    const auto small = makeTensor(17, 23, 2, 0, false, 43);
    Rng rng(44);
    const auto xBig = syntheticActivations(64, 3, rng);
    const auto xSmall = syntheticActivations(23, 2, rng);

    for (const auto backend :
         {LutGemmBackend::Reference, LutGemmBackend::Simd}) {
        for (const bool pre : {false, true}) {
            LutGemmConfig cfg;
            cfg.backend = backend;
            cfg.preAligned = pre;
            cfg.threads = 2;
            cfg.blockRows = 8;

            ExecutionContext ctx(2);
            for (int call = 0; call < 3; ++call) {
                LutGemmCounters fresh, shared;
                const auto yRef = lutGemm(big, xBig, cfg, &fresh);
                const auto yCtx =
                    lutGemm(big, xBig, cfg, &shared, &ctx);
                EXPECT_EQ(yRef, yCtx)
                    << "backend=" << static_cast<int>(backend)
                    << " pre=" << pre << " call=" << call;
                EXPECT_EQ(fresh, shared);

                const auto sRef = lutGemm(small, xSmall, cfg);
                const auto sCtx =
                    lutGemm(small, xSmall, cfg, nullptr, &ctx);
                EXPECT_EQ(sRef, sCtx)
                    << "backend=" << static_cast<int>(backend)
                    << " pre=" << pre << " call=" << call;
            }
        }
    }
}

TEST(ExecutionContext, PrepackedSharedContextSpawnsOnePool)
{
    const auto tensor = makeTensor(64, 48, 4, 0, true, 77);
    const auto packed = packLutKeys(tensor, 4);
    Rng rng(78);
    const auto x = syntheticActivations(48, 2, rng);

    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.preAligned = true;
    cfg.threads = 2;
    cfg.blockRows = 16;

    ExecutionContext ctx(2);
    const auto first = lutGemm(tensor, x, cfg, packed, nullptr, &ctx);
    for (int call = 0; call < 4; ++call) {
        const auto y = lutGemm(tensor, x, cfg, packed, nullptr, &ctx);
        EXPECT_EQ(y, first) << "call " << call;
    }
    // Five calls, one pool spawn: the reuse the context exists for.
    EXPECT_EQ(ctx.poolSpawns(), 1u);
    EXPECT_EQ(ctx.poolThreads(), 2);
}

} // namespace
} // namespace figlut
