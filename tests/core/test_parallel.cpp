/**
 * @file
 * Tests for the ThreadPool work queue and multi-threaded LUT-GEMM:
 * the Simd backend's row tiles on 1..8 workers are bit-identical to
 * the scalar Reference backend.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/engine_numerics.h"
#include "core/lut_gemm.h"
#include "core/parallel.h"
#include "model/synthetic.h"
#include "quant/uniform_to_bcq.h"

namespace figlut {
namespace {

// ---------------------------------------------------------------- pool

TEST(Parallel, ResolveThreadCount)
{
    EXPECT_GE(resolveThreadCount(0), 1);
    EXPECT_GE(resolveThreadCount(-3), 1);
    EXPECT_EQ(resolveThreadCount(1), 1);
    EXPECT_EQ(resolveThreadCount(7), 7);
}

TEST(Parallel, EmptyBatchCompletesImmediately)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelForBlocked(0, 16, [&](BlockRange) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.wait(); // idle wait must not deadlock
}

TEST(Parallel, CoversIndexSpaceExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t total = 1037; // not a multiple of the block size
    std::vector<std::atomic<int>> hits(total);
    pool.parallelForBlocked(total, 64, [&](BlockRange r) {
        EXPECT_LE(r.begin, r.end);
        EXPECT_LE(r.end, total);
        for (std::size_t i = r.begin; i < r.end; ++i)
            hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < total; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, SingleThreadMatchesSerialSum)
{
    std::vector<int> values(513);
    std::iota(values.begin(), values.end(), 1);
    const long expected =
        std::accumulate(values.begin(), values.end(), 0L);

    ThreadPool pool(1);
    std::atomic<long> sum{0};
    pool.parallelForBlocked(values.size(), 10, [&](BlockRange r) {
        long partial = 0;
        for (std::size_t i = r.begin; i < r.end; ++i)
            partial += values[i];
        sum.fetch_add(partial);
    });
    EXPECT_EQ(sum.load(), expected);
}

TEST(Parallel, OversubscriptionCompletes)
{
    // Far more workers than items (and than cores): every item must
    // still run exactly once and wait() must return.
    ThreadPool pool(32);
    std::atomic<int> calls{0};
    pool.parallelForBlocked(3, 1, [&](BlockRange r) {
        EXPECT_EQ(r.size(), 1u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 3);
}

TEST(Parallel, TaskExceptionRethrownFromWait)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelForBlocked(
                     8, 1,
                     [&](BlockRange r) {
                         if (r.begin == 5)
                             fatal("boom at ", r.begin);
                     }),
                 FatalError);
    // Pool must remain usable after an exception.
    std::atomic<int> calls{0};
    pool.parallelForBlocked(4, 2, [&](BlockRange) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 2);
}

// ------------------------------------------------- threaded LUT-GEMM

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
runBackend(const GemmCase &tc, LutGemmBackend backend, int threads,
           int block_rows, bool pre_aligned,
           LutGemmCounters *counters = nullptr)
{
    LutGemmConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    cfg.blockRows = block_rows;
    cfg.preAligned = pre_aligned;
    return lutGemm(tc.weights, tc.x, cfg, counters);
}

TEST(LutGemmThreaded, OneThreadBitIdenticalToReference)
{
    const auto tc = makeCase(32, 64, 3, 3, 16, true, 901);
    for (const bool pre : {false, true}) {
        const auto ref =
            runBackend(tc, LutGemmBackend::Reference, 0, 64, pre);
        const auto thr =
            runBackend(tc, LutGemmBackend::Simd, 1, 64, pre);
        EXPECT_TRUE(compareMatrices(thr, ref).identical)
            << "preAligned=" << pre;
    }
}

TEST(LutGemmThreaded, ManyThreadsBitIdenticalToReference)
{
    const auto tc = makeCase(64, 96, 4, 2, 24, true, 902);
    for (const bool pre : {false, true}) {
        const auto ref =
            runBackend(tc, LutGemmBackend::Reference, 0, 64, pre);
        const auto thr =
            runBackend(tc, LutGemmBackend::Simd, 8, 8, pre);
        EXPECT_TRUE(compareMatrices(thr, ref).identical)
            << "preAligned=" << pre;
    }
}

TEST(LutGemmThreaded, BlockRowsSweepIsTilingInvariant)
{
    const auto tc = makeCase(40, 48, 2, 3, 0, true, 903);
    const auto ref = runBackend(tc, LutGemmBackend::Reference, 0, 64, true);
    // Including block sizes that do not divide M and exceed M.
    for (const int block_rows : {1, 3, 7, 16, 40, 64, 1000}) {
        const auto thr =
            runBackend(tc, LutGemmBackend::Simd, 4, block_rows, true);
        EXPECT_TRUE(compareMatrices(thr, ref).identical)
            << "blockRows=" << block_rows;
    }
}

TEST(LutGemmThreaded, InvalidBlockRowsThrows)
{
    const auto tc = makeCase(4, 16, 1, 2, 0, false, 907);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = 4;
    for (const int block_rows : {0, -1}) {
        cfg.blockRows = block_rows;
        EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg), FatalError)
            << "blockRows=" << block_rows;
    }
}

TEST(LutGemmThreaded, AbsurdThreadCountThrowsInsteadOfSpawning)
{
    const auto tc = makeCase(4, 16, 1, 2, 0, false, 908);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = kMaxLutGemmThreads + 1;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg), FatalError);
}

} // namespace
} // namespace figlut
