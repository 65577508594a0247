/**
 * @file
 * Differential tests for the runtime Session: a Session decode step
 * must be bit-identical to a hand-rolled per-layer reference path
 * (Reference-backend lutGemm + reference vector ops, fresh resources
 * every call), and its emitted KernelTask list must match
 * decodeStepWorkload for the same WorkloadOptions.
 */

#include <gtest/gtest.h>

#include "attention_oracle.h"
#include "common/rng.h"
#include "model/workload.h"
#include "runtime/reference_ops.h"
#include "runtime/session.h"

namespace figlut {
namespace {

/** Small decoder architecture for randomized trials. */
OptConfig
tinyConfig(std::size_t hidden, std::size_t layers, std::size_t heads,
           std::size_t ffn)
{
    OptConfig cfg;
    cfg.name = "OPT-test";
    cfg.hidden = hidden;
    cfg.layers = layers;
    cfg.heads = heads;
    cfg.ffn = ffn;
    return cfg;
}

/**
 * Hand-rolled decode step over the session's own quantized weights:
 * per-layer Reference-backend lutGemm calls (no ExecutionContext, no
 * pre-packed keys) chained with the reference vector ops and the
 * column-at-a-time attention oracle, maintaining its own KV cache. This is the per-call building-block style every
 * example used before Session existed.
 */
MatrixD
handRolledStep(const QuantizedModel &qm, const SessionOptions &so,
               const MatrixD &input,
               std::vector<std::vector<MatrixD>> &kCache,
               std::vector<std::vector<MatrixD>> &vCache)
{
    LutGemmConfig cfg = makeGemmConfig(so.exec, so.quant.mu);
    cfg.backend = LutGemmBackend::Reference;
    cfg.threads = 0;
    cfg.blockRows = 64;

    const OptConfig &model = qm.config();
    const std::size_t h = model.hidden;
    const std::size_t batch = input.cols();
    MatrixD x = input;
    for (std::size_t l = 0; l < qm.layers(); ++l) {
        const QuantizedLayer &layer = qm.layer(l);
        MatrixD ln = referenceLayerNorm(x);
        const MatrixD qkv = lutGemm(layer.qkv, ln, cfg);
        MatrixD q(h, batch), k(h, batch), v(h, batch);
        for (std::size_t r = 0; r < h; ++r) {
            for (std::size_t b = 0; b < batch; ++b) {
                q(r, b) = qkv(r, b);
                k(r, b) = qkv(h + r, b);
                v(r, b) = qkv(2 * h + r, b);
            }
        }
        kCache[l].push_back(std::move(k));
        vCache[l].push_back(std::move(v));
        std::vector<std::vector<KvTokenRef>> views;
        for (std::size_t b = 0; b < batch; ++b)
            views.push_back(snapshotColumnViews(kCache[l], vCache[l], b));
        const MatrixD attn =
            perColumnAttentionOracle(q, views, model.heads);
        MatrixD proj = lutGemm(layer.attnOut, attn, cfg);
        x = referenceResidualAdd(x, proj);
        ln = referenceLayerNorm(x);
        MatrixD f = lutGemm(layer.fc1, ln, cfg);
        f = referenceGelu(f);
        proj = lutGemm(layer.fc2, f, cfg);
        x = referenceResidualAdd(x, proj);
    }
    return x;
}

void
expectTasksEqual(const std::vector<KernelTask> &a,
                 const std::vector<KernelTask> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << "task " << i;
        EXPECT_EQ(a[i].name, b[i].name) << "task " << i;
        if (a[i].kind == KernelTask::Kind::Gemm) {
            EXPECT_EQ(a[i].gemm.m, b[i].gemm.m) << "task " << i;
            EXPECT_EQ(a[i].gemm.n, b[i].gemm.n) << "task " << i;
            EXPECT_EQ(a[i].gemm.batch, b[i].gemm.batch) << "task " << i;
            EXPECT_EQ(a[i].gemm.weightBits, b[i].gemm.weightBits)
                << "task " << i;
            EXPECT_EQ(a[i].gemm.groupSize, b[i].gemm.groupSize)
                << "task " << i;
            EXPECT_EQ(a[i].gemm.hasOffset, b[i].gemm.hasOffset)
                << "task " << i;
        } else {
            EXPECT_EQ(a[i].vector.adds, b[i].vector.adds) << "task " << i;
            EXPECT_EQ(a[i].vector.muls, b[i].vector.muls) << "task " << i;
            EXPECT_EQ(a[i].vector.specials, b[i].vector.specials)
                << "task " << i;
        }
    }
}

TEST(Session, DecodeStepBitIdenticalToHandRolledReference)
{
    // Randomized OPT-125M-style shapes, scaled down so the per-trial
    // quantization stays in test budget: the per-layer structure
    // (4 GEMMs around LN/attention/GELU/residuals) is the real one.
    Rng trialRng(2025);
    for (int trial = 0; trial < 4; ++trial) {
        const std::size_t heads = trial % 2 == 0 ? 2 : 4;
        const std::size_t hidden =
            heads * static_cast<std::size_t>(trialRng.uniformInt(8, 16));
        const std::size_t ffn =
            hidden * static_cast<std::size_t>(trialRng.uniformInt(2, 4));
        const std::size_t layers =
            static_cast<std::size_t>(trialRng.uniformInt(1, 2));
        const auto model = tinyConfig(hidden, layers, heads, ffn);

        SessionOptions so;
        so.quant.weightBits =
            static_cast<int>(trialRng.uniformInt(2, 4));
        so.quant.groupSize = trial % 2 == 0 ? 0 : 16;
        so.quant.useOffset = trial % 2 == 1;
        so.quant.bcqIterations = 1;
        so.quant.mu = static_cast<int>(trialRng.uniformInt(3, 5));
        so.quant.seed = 7000 + static_cast<uint64_t>(trial);
        so.batch = static_cast<std::size_t>(trialRng.uniformInt(1, 3));
        so.exec.preAligned = trial % 2 == 0;
        so.exec.threads = 2;
        so.exec.blockRows = 8;

        Session session(model, so);
        Rng inputRng(99 + static_cast<uint64_t>(trial));
        MatrixD sessionHidden = session.makeInput(inputRng);
        MatrixD refHidden = sessionHidden;

        std::vector<std::vector<MatrixD>> kCache(session.model().layers());
        std::vector<std::vector<MatrixD>> vCache(session.model().layers());
        // Two steps so the second one attends over a real KV history.
        for (int step = 0; step < 2; ++step) {
            const auto result = session.runDecodeStep(sessionHidden);
            sessionHidden = result.hidden;
            refHidden = handRolledStep(session.model(), so, refHidden,
                                       kCache, vCache);
            EXPECT_EQ(sessionHidden, refHidden)
                << "trial " << trial << " step " << step;
            EXPECT_EQ(result.gemmCalls, 4 * session.model().layers())
                << "trial " << trial;
        }
    }
}

TEST(Session, EmittedTasksMatchDecodeStepWorkload)
{
    const auto model = tinyConfig(32, 2, 4, 64);
    for (const bool includeVector : {true, false}) {
        SessionOptions so;
        so.batch = 3;
        so.contextLen = 77;
        so.includeVector = includeVector;
        so.quant.weightBits = 3;
        so.quant.groupSize = 16;
        so.quant.useOffset = true;
        so.quant.bcqIterations = 0;
        Session session(model, so);
        expectTasksEqual(session.workloadTasks(),
                         decodeStepWorkload(session.model().config(),
                                            session.workloadOptions()));
        const std::size_t perLayer = includeVector ? 10u : 4u;
        EXPECT_EQ(session.workloadTasks().size(),
                  perLayer * session.model().layers());
    }
}

TEST(Session, WorkloadOptionsCarryQuantConfig)
{
    SessionOptions so;
    so.batch = 5;
    so.contextLen = 123;
    so.quant.weightBits = 2;
    so.quant.groupSize = 32;
    so.quant.useOffset = false;
    so.quant.bcqIterations = 0;
    Session session(tinyConfig(32, 1, 2, 64), so);
    const auto opts = session.workloadOptions();
    EXPECT_EQ(opts.batch, 5u);
    EXPECT_EQ(opts.contextLen, 123u);
    EXPECT_EQ(opts.weightBits, 2);
    EXPECT_EQ(opts.groupSize, 32u);
    EXPECT_FALSE(opts.hasOffset);
    for (const auto &task : session.workloadTasks()) {
        if (task.kind != KernelTask::Kind::Gemm)
            continue;
        EXPECT_EQ(task.gemm.weightBits, 2);
        EXPECT_EQ(task.gemm.groupSize, 32u);
        EXPECT_FALSE(task.gemm.hasOffset);
    }
}

TEST(Session, KvCacheGrowsAndResetRestartsTheSequence)
{
    SessionOptions so;
    so.quant.bcqIterations = 0;
    so.batch = 2;
    Session session(tinyConfig(16, 1, 2, 32), so);
    Rng rng(5);
    const MatrixD input = session.makeInput(rng);

    EXPECT_EQ(session.kvLength(), 0u);
    const auto first = session.runDecodeStep(input);
    EXPECT_EQ(session.kvLength(), 1u);
    const auto second = session.runDecodeStep(first.hidden);
    EXPECT_EQ(session.kvLength(), 2u);
    // With a cache, the same input produces a different mix than the
    // fresh first step (the attention blends two KV entries).
    session.resetKv();
    EXPECT_EQ(session.kvLength(), 0u);
    const auto again = session.runDecodeStep(input);
    EXPECT_EQ(session.kvLength(), 1u);
    EXPECT_EQ(again.hidden, first.hidden);
    (void)second;
}

TEST(Session, ResetKvMidSequenceReplaysTheWholeSequence)
{
    // Reset with a non-trivial KV history must replay *every* later
    // step bit-identically, not just the first (the KV clear has to
    // reach all layers of every per-sequence cache).
    SessionOptions so;
    so.quant.bcqIterations = 0;
    so.batch = 2;
    Session session(tinyConfig(16, 2, 2, 32), so);
    Rng rng(17);
    const MatrixD inputA = session.makeInput(rng);

    const auto firstA = session.runDecodeStep(inputA);
    const auto firstB = session.runDecodeStep(firstA.hidden);
    const auto firstC = session.runDecodeStep(firstB.hidden);
    EXPECT_EQ(session.kvLength(), 3u);

    session.resetKv();
    EXPECT_EQ(session.kvLength(), 0u);
    const auto againA = session.runDecodeStep(inputA);
    const auto againB = session.runDecodeStep(againA.hidden);
    const auto againC = session.runDecodeStep(againB.hidden);
    EXPECT_EQ(againA.hidden, firstA.hidden);
    EXPECT_EQ(againB.hidden, firstB.hidden);
    EXPECT_EQ(againC.hidden, firstC.hidden);
    EXPECT_EQ(session.kvLength(), 3u);

    // The replayed KV history matches too, per sequence and layer.
    for (std::size_t seq = 0; seq < so.batch; ++seq) {
        const KvCache cache = session.kv(seq);
        EXPECT_EQ(cache.layers(), 2u);
        EXPECT_EQ(cache.length(), 3u);
        EXPECT_GT(cache.bytes(), 0u);
    }
}

TEST(Session, KvAccessorExposesPerSequenceHistories)
{
    SessionOptions so;
    so.quant.bcqIterations = 0;
    so.batch = 2;
    Session session(tinyConfig(16, 1, 2, 32), so);
    Rng rng(23);
    const MatrixD input = session.makeInput(rng);
    const auto r = session.runDecodeStep(input);
    (void)r;

    // Each sequence's cached K/V is the batch-1 column view: h x 1
    // snapshots whose contents differ between the two sequences.
    const KvCache kv0 = session.kv(0);
    const KvCache kv1 = session.kv(1);
    ASSERT_EQ(kv0.length(), 1u);
    ASSERT_EQ(kv1.length(), 1u);
    EXPECT_EQ(kv0.keys(0).front().rows(), 16u);
    EXPECT_EQ(kv0.keys(0).front().cols(), 1u);
    EXPECT_NE(kv0, kv1);
    EXPECT_THROW(session.kv(2), FatalError);
}

TEST(Session, MaxLayersTruncatesModelAndWorkload)
{
    SessionOptions so;
    so.quant.bcqIterations = 0;
    so.quant.maxLayers = 2;
    Session session(tinyConfig(16, 5, 2, 32), so);
    EXPECT_EQ(session.model().layers(), 2u);
    EXPECT_EQ(session.model().config().layers, 2u);
    EXPECT_EQ(session.workloadTasks().size(), 2u * 10u);
    EXPECT_GT(session.model().storageBytes(), 0u);
    EXPECT_GT(session.model().packedKeyBytes(), 0u);
}

TEST(Session, SimulateScoresTheEmittedGraph)
{
    SessionOptions so;
    so.quant.bcqIterations = 0;
    so.batch = 2;
    Session session(tinyConfig(32, 2, 4, 64), so);
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    const auto result = session.simulate(hw);
    EXPECT_GT(result.totalCycles, 0.0);
    EXPECT_GT(result.seconds, 0.0);
    // Same graph through a bare Accelerator: identical score.
    const Accelerator acc(hw);
    const auto direct = acc.runWorkload(session.workloadTasks());
    EXPECT_EQ(result.totalCycles, direct.totalCycles);
    EXPECT_EQ(result.energy.totalJoules(), direct.energy.totalJoules());
}

TEST(Session, RejectsMalformedInputsAndConfigs)
{
    SessionOptions so;
    so.quant.bcqIterations = 0;
    Session session(tinyConfig(16, 1, 2, 32), so);
    EXPECT_THROW(session.runDecodeStep(MatrixD(8, 1)), FatalError);
    EXPECT_THROW(session.runDecodeStep(MatrixD(16, 3)), FatalError);

    // hidden not divisible by heads
    EXPECT_THROW(Session(tinyConfig(10, 1, 3, 32), so), FatalError);
    // empty architecture
    EXPECT_THROW(Session(tinyConfig(0, 0, 0, 0), so), FatalError);
    SessionOptions zeroBatch = so;
    zeroBatch.batch = 0;
    EXPECT_THROW(Session(tinyConfig(16, 1, 2, 32), zeroBatch),
                 FatalError);
}

TEST(Session, BackendsAgreeThroughTheSessionPath)
{
    // The session path (packed keys + shared context) must agree with
    // a Reference-backend session bit-for-bit.
    const auto model = tinyConfig(24, 1, 2, 48);
    MatrixD outputs[2];
    const LutGemmBackend backends[] = {LutGemmBackend::Reference,
                                       LutGemmBackend::Simd};
    for (int i = 0; i < 2; ++i) {
        SessionOptions so;
        so.quant.bcqIterations = 1;
        so.batch = 2;
        so.exec.backend = backends[i];
        so.exec.threads = 2;
        so.exec.blockRows = 8;
        Session session(model, so);
        // Only the Simd backend consumes pre-packed keys; Reference
        // must not pay for materializing them.
        if (backends[i] == LutGemmBackend::Simd)
            EXPECT_GT(session.model().packedKeyBytes(), 0u);
        else
            EXPECT_EQ(session.model().packedKeyBytes(), 0u);
        Rng rng(11);
        const auto input = session.makeInput(rng);
        outputs[i] = session.runDecodeStep(input).hidden;
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

} // namespace
} // namespace figlut
