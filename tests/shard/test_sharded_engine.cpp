/**
 * @file
 * Bit-identity of sharded execution. The contract under test is
 * DESIGN.md's "Sharded execution": for any shard count, backend, and
 * prefill/decode mix, the sharded path produces byte-for-byte the
 * hidden states, KV histories, and kernel counters of the unsharded
 * one — sharding is an execution-resource decision, never a numerics
 * or accounting change.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lut_gemm.h"
#include "model/synthetic.h"
#include "runtime/exec_options.h"
#include "runtime/quantized_model.h"
#include "serve/engine.h"
#include "shard/shard_plan.h"
#include "shard/sharded_executor.h"

namespace figlut {
namespace {

void
expectMatrixEq(const MatrixD &a, const MatrixD &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(a(r, c), b(r, c))
                << what << " at (" << r << ", " << c << ")";
}

const LutGemmBackend kBackends[] = {
    LutGemmBackend::Reference,
    LutGemmBackend::Simd,
};

/**
 * Direct executor differential: every (backend, shard count) against
 * the plain unsharded kernel on the same operands — outputs and the
 * canonical counters bit-identical.
 */
TEST(ShardedExecutor, MatchesUnshardedKernelAllBackends)
{
    OptConfig model;
    model.name = "OPT-shard-exec";
    model.hidden = 16;
    model.layers = 2;
    model.heads = 2;
    model.ffn = 32;
    QuantizedModelOptions qopts;
    qopts.weightBits = 2;
    qopts.bcqIterations = 0;
    qopts.packKeys = true;
    const QuantizedModel quantized(model, qopts);

    Rng rng(314);
    const LayerOp gemms[] = {LayerOp::QkvProj, LayerOp::OutProj,
                             LayerOp::Fc1, LayerOp::Fc2};

    for (const int shards : {2, 3, 8}) {
        const ShardPlan plan(quantized, shards);
        ShardedExecutor exec(plan, 2);
        for (const LutGemmBackend backend : kBackends) {
            ExecOptions opts;
            opts.backend = backend;
            opts.threads = 2;
            const LutGemmConfig cfg =
                makeGemmConfig(opts, qopts.mu);
            for (std::size_t l = 0; l < quantized.layers(); ++l) {
                for (const LayerOp op : gemms) {
                    const BcqTensor &w =
                        quantized.layer(l).weights(op);
                    const auto x =
                        syntheticActivations(w.cols, 3, rng);
                    LutGemmCounters plain, shardedCnt;
                    const MatrixD expected =
                        backend == LutGemmBackend::Simd
                            ? lutGemm(w, x, cfg,
                                      quantized.layer(l).keys(op),
                                      &plain)
                            : lutGemm(w, x, cfg, &plain);
                    const MatrixD actual =
                        exec.run(l, op, x, cfg, &shardedCnt);
                    expectMatrixEq(expected, actual, "sharded gemm");
                    EXPECT_EQ(plain, shardedCnt) << "sharded counters";
                }
            }
        }
    }
}

struct DrainResult
{
    std::vector<MatrixD> hidden;
    std::vector<KvCache> kv;
    std::vector<LutGemmCounters> counters;
    /** Step-by-step fused counters, in execution order. */
    std::vector<LutGemmCounters> stepCounters;
    std::vector<std::size_t> stepColumns;
};

/**
 * Drive a ragged prefill+decode mix (queued admission, chunked
 * prefill) to completion on one engine configuration and capture
 * everything bit-identity must preserve.
 */
DrainResult
drainMix(LutGemmBackend backend, int shards)
{
    OptConfig model;
    model.name = "OPT-shard-mix";
    model.hidden = 16;
    model.layers = 2;
    model.heads = 2;
    model.ffn = 32;
    serve::EngineOptions opts;
    opts.model.weightBits = 3;
    opts.model.bcqIterations = 0;
    opts.exec.backend = backend;
    opts.exec.threads = 2;
    opts.exec.shards = shards;
    opts.maxBatch = 3; // the fourth request queues
    opts.prefillChunkTokens = 4; // long prompts prefill chunked
    auto created = serve::Engine::create(model, opts);
    EXPECT_TRUE(created.ok()) << created.status().toString();
    serve::Engine &engine = *created.value();
    EXPECT_EQ(engine.shards(), resolveShardCount(shards));

    const std::size_t prompts[] = {6, 0, 3, 9};
    const std::size_t budgets[] = {3, 5, 2, 4};
    std::vector<serve::RequestId> ids;
    for (std::size_t i = 0; i < 4; ++i) {
        serve::RequestOptions req;
        req.maxTokens = budgets[i];
        req.promptTokens = prompts[i];
        req.seed = 900 + i;
        auto id = engine.submit(req);
        EXPECT_TRUE(id.ok()) << id.status().toString();
        ids.push_back(id.value());
    }

    DrainResult out;
    std::size_t steps = 0;
    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0) {
        const auto stats = engine.step();
        EXPECT_TRUE(stats.ok()) << stats.status().toString();
        out.stepCounters.push_back(stats.value().counters);
        out.stepColumns.push_back(
            stats.value().columnContexts.size());
        EXPECT_LT(++steps, 64u) << "engine failed to drain";
    }
    for (const serve::RequestId id : ids) {
        const auto snap = engine.poll(id);
        EXPECT_TRUE(snap.ok());
        EXPECT_EQ(snap.value().state, serve::RequestState::Finished);
        out.hidden.push_back(snap.value().hidden);
        out.counters.push_back(snap.value().stats.counters);
        out.kv.push_back(engine.kvHistory(id).value());
    }
    return out;
}

void
expectDrainsIdentical(const DrainResult &ref, const DrainResult &got,
                      const std::string &what)
{
    ASSERT_EQ(ref.stepColumns, got.stepColumns) << what;
    ASSERT_EQ(ref.stepCounters.size(), got.stepCounters.size()) << what;
    for (std::size_t s = 0; s < ref.stepCounters.size(); ++s)
        EXPECT_EQ(ref.stepCounters[s], got.stepCounters[s]) << what;
    ASSERT_EQ(ref.hidden.size(), got.hidden.size()) << what;
    for (std::size_t i = 0; i < ref.hidden.size(); ++i) {
        expectMatrixEq(ref.hidden[i], got.hidden[i], what.c_str());
        EXPECT_EQ(ref.counters[i], got.counters[i]) << what;
        const KvCache &a = ref.kv[i];
        const KvCache &b = got.kv[i];
        ASSERT_EQ(a.layers(), b.layers()) << what;
        ASSERT_EQ(a.length(), b.length()) << what;
        for (std::size_t l = 0; l < a.layers(); ++l) {
            for (std::size_t t = 0; t < a.keys(l).size(); ++t) {
                expectMatrixEq(a.keys(l)[t], b.keys(l)[t],
                               what.c_str());
                expectMatrixEq(a.values(l)[t], b.values(l)[t],
                               what.c_str());
            }
        }
    }
}

/**
 * The tentpole invariant: shards in {2, 3, 8} reproduce the shards=1
 * drain bit-for-bit — hidden states, per-step and per-request
 * counters, KV histories — on every backend, across a ragged mix of
 * chunked prefills, queued admission, and staggered retirement.
 */
TEST(ShardedEngine, BitIdenticalToUnshardedAcrossBackends)
{
    for (const LutGemmBackend backend : kBackends) {
        const DrainResult ref = drainMix(backend, 1);
        for (const int shards : {2, 3, 8}) {
            const DrainResult got = drainMix(backend, shards);
            expectDrainsIdentical(
                ref, got,
                std::string(lutGemmBackendName(backend)) + " shards " +
                    std::to_string(shards));
        }
    }
}

/** Sharding must also be invisible to the analytic view's GEMM count
 *  and to the workload geometry — only the shards stamp changes. */
TEST(ShardedEngine, WorkloadTasksCarryTheShardStamp)
{
    OptConfig model;
    model.name = "OPT-shard-tasks";
    model.hidden = 16;
    model.layers = 1;
    model.heads = 2;
    model.ffn = 32;
    serve::EngineOptions opts;
    opts.model.weightBits = 2;
    opts.model.bcqIterations = 0;
    opts.exec.shards = 2;
    auto created = serve::Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    serve::Engine &engine = *created.value();
    serve::RequestOptions req;
    req.maxTokens = 2;
    ASSERT_TRUE(engine.submit(req).ok());
    const auto tasks = engine.workloadTasks();
    ASSERT_FALSE(tasks.empty());
    for (const KernelTask &task : tasks) {
        if (task.kind == KernelTask::Kind::Gemm) {
            EXPECT_EQ(task.shards, 2);
        }
    }
}

} // namespace
} // namespace figlut
