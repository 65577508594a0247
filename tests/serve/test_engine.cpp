/**
 * @file
 * Tests for the request-level serving engine (serve/engine.h).
 *
 * The load-bearing suites are the differential ones: an Engine step
 * must be bit-identical to a hand-rolled per-layer reference path
 * (Reference-backend lutGemm + reference vector ops, fresh resources
 * every call), and an Engine decoding N concurrent requests with
 * ragged token budgets and staggered admission must produce, per
 * request, bit-identical hidden states and KV histories to N
 * independent batch-1 engines — continuous batching is an
 * amortization, never a numerics change. The rest covers the
 * Status-based rejection paths (construction knobs, capacity,
 * lifecycle) and the live-batch analytic workload.
 */

#include <gtest/gtest.h>

#include "../runtime/attention_oracle.h"
#include "common/rng.h"
#include "model/workload.h"
#include "runtime/reference_ops.h"
#include "serve/engine.h"

namespace figlut {
namespace serve {
namespace {

OptConfig
tinyConfig(std::size_t hidden, std::size_t layers, std::size_t heads,
           std::size_t ffn)
{
    OptConfig cfg;
    cfg.name = "OPT-serve-test";
    cfg.hidden = hidden;
    cfg.layers = layers;
    cfg.heads = heads;
    cfg.ffn = ffn;
    return cfg;
}

EngineOptions
tinyEngineOptions()
{
    EngineOptions opts;
    opts.model.bcqIterations = 0;
    opts.model.weightBits = 3;
    return opts;
}

/**
 * Hand-rolled decode step over the engine's own quantized weights:
 * per-layer Reference-backend lutGemm calls (no ExecutionContext, no
 * pre-packed keys) chained with the reference vector ops and the
 * column-at-a-time attention oracle, maintaining its own lock-step KV
 * cache (one hidden x batch snapshot per step and layer).
 */
MatrixD
handRolledStep(const QuantizedModel &qm, const EngineOptions &opts,
               const MatrixD &input,
               std::vector<std::vector<MatrixD>> &kCache,
               std::vector<std::vector<MatrixD>> &vCache)
{
    LutGemmConfig cfg = makeGemmConfig(opts.exec, opts.model.mu);
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

/** Submit `count` unbounded requests with consecutive seeds. */
std::vector<RequestId>
submitUnbounded(Engine &engine, std::size_t count, uint64_t seed)
{
    std::vector<RequestId> ids;
    for (std::size_t i = 0; i < count; ++i) {
        RequestOptions req;
        req.maxTokens = 0;
        req.seed = seed + i;
        auto id = engine.submit(req);
        EXPECT_TRUE(id.ok()) << id.status().toString();
        ids.push_back(id.value());
    }
    return ids;
}

/** The requests' current hidden states as one hidden x N matrix. */
MatrixD
gatherHidden(const Engine &engine, const std::vector<RequestId> &ids)
{
    const std::size_t h = engine.model().config().hidden;
    MatrixD x(h, ids.size());
    for (std::size_t b = 0; b < ids.size(); ++b) {
        const MatrixD col = engine.poll(ids[b]).value().hidden;
        for (std::size_t r = 0; r < h; ++r)
            x(r, b) = col(r, 0);
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

TEST(Engine, DecodeStepBitIdenticalToHandRolledReference)
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

        EngineOptions opts;
        opts.model.weightBits =
            static_cast<int>(trialRng.uniformInt(2, 4));
        opts.model.groupSize = trial % 2 == 0 ? 0 : 16;
        opts.model.useOffset = trial % 2 == 1;
        opts.model.bcqIterations = 1;
        opts.model.mu = static_cast<int>(trialRng.uniformInt(3, 5));
        opts.model.seed = 7000 + static_cast<uint64_t>(trial);
        opts.maxBatch =
            static_cast<std::size_t>(trialRng.uniformInt(1, 3));
        opts.exec.preAligned = trial % 2 == 0;
        opts.exec.threads = 2;
        opts.exec.blockRows = 8;

        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok()) << created.status().toString();
        Engine &engine = *created.value();
        const auto ids = submitUnbounded(
            engine, opts.maxBatch, 99 + 10 * static_cast<uint64_t>(trial));
        // The reference starts from the requests' seed-drawn inputs.
        MatrixD refHidden = gatherHidden(engine, ids);

        std::vector<std::vector<MatrixD>> kCache(engine.model().layers());
        std::vector<std::vector<MatrixD>> vCache(engine.model().layers());
        // Two steps so the second one attends over a real KV history.
        for (int step = 0; step < 2; ++step) {
            const auto stats = engine.step();
            ASSERT_TRUE(stats.ok()) << stats.status().toString();
            refHidden = handRolledStep(engine.model(), opts, refHidden,
                                       kCache, vCache);
            EXPECT_EQ(gatherHidden(engine, ids), refHidden)
                << "trial " << trial << " step " << step;
            EXPECT_EQ(stats.value().gemmCalls,
                      4 * engine.model().layers())
                << "trial " << trial;
        }
    }
}

/**
 * The batching differential: one Engine serving N requests of
 * different ages (ragged budgets, one submitted mid-flight so it waits
 * in the queue) against N independent batch-1 engines running the same
 * (budget, seed) requests. Hidden states are compared per request
 * after *every* fused step, KV histories, counters, and stats at
 * retirement.
 */
TEST(Engine, MatchesIndependentBatch1Engines)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 2; // forces the third request through the queue

    constexpr std::size_t kRequests = 3;
    const std::size_t budgets[kRequests] = {2, 4, 3};
    const uint64_t seeds[kRequests] = {101, 202, 303};

    // Reference trajectories: per request, a batch-1 engine decoding
    // the same request alone.
    std::vector<std::vector<MatrixD>> refHidden(kRequests);
    std::vector<KvCache> refKv;
    std::vector<LutGemmCounters> refCounters(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        EngineOptions solo = opts;
        solo.maxBatch = 1;
        auto created = Engine::create(model, solo);
        ASSERT_TRUE(created.ok()) << created.status().toString();
        Engine &ref = *created.value();
        const auto id = ref.submit({budgets[i], seeds[i]});
        ASSERT_TRUE(id.ok()) << id.status().toString();
        for (std::size_t t = 0; t < budgets[i]; ++t) {
            const auto stats = ref.step();
            ASSERT_TRUE(stats.ok()) << stats.status().toString();
            refHidden[i].push_back(ref.poll(id.value()).value().hidden);
            refCounters[i] += stats.value().counters;
        }
        refKv.push_back(ref.kvHistory(id.value()).value());
    }

    // Serve the same three requests concurrently: two up front, the
    // third submitted after the first fused step (it must queue until
    // request 0 retires, then join with a fresh KV while the others
    // are mid-sequence — the ragged case).
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    Engine &engine = *created.value();

    RequestId ids[kRequests] = {};
    for (std::size_t i = 0; i < 2; ++i) {
        auto id = engine.submit({budgets[i], seeds[i]});
        ASSERT_TRUE(id.ok()) << id.status().toString();
        ids[i] = id.value();
    }

    std::size_t stepsRun = 0;
    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0) {
        const auto stats = engine.step();
        ASSERT_TRUE(stats.ok()) << stats.status().toString();
        ++stepsRun;
        if (stepsRun == 1) {
            auto id = engine.submit({budgets[2], seeds[2]});
            ASSERT_TRUE(id.ok()) << id.status().toString();
            ids[2] = id.value();
            // maxBatch 2 is full: request 2 waits in the queue.
            EXPECT_EQ(engine.queuedRequests(), 1u);
        }
        // After every fused step, every request seen so far matches
        // its solo trajectory at its own age.
        for (std::size_t i = 0; i < kRequests; ++i) {
            if (ids[i] == 0)
                continue;
            const auto snap = engine.poll(ids[i]);
            ASSERT_TRUE(snap.ok()) << snap.status().toString();
            const std::size_t age = snap.value().stats.tokensDecoded;
            EXPECT_EQ(snap.value().kvLength, age);
            if (age == 0)
                continue;
            EXPECT_EQ(snap.value().hidden, refHidden[i][age - 1])
                << "request " << i << " age " << age;
        }
        ASSERT_LT(stepsRun, 32u) << "engine failed to drain";
    }

    // Retirement: exact budgets, exact KV histories, exact per-request
    // counter shares, and sane timing/queue accounting.
    for (std::size_t i = 0; i < kRequests; ++i) {
        const auto snap = engine.poll(ids[i]);
        ASSERT_TRUE(snap.ok());
        EXPECT_EQ(snap.value().state, RequestState::Finished);
        EXPECT_EQ(snap.value().stats.tokensDecoded, budgets[i]);
        EXPECT_EQ(snap.value().stats.gemmCalls,
                  budgets[i] * 4 * model.layers);
        EXPECT_EQ(snap.value().stats.counters, refCounters[i]);
        EXPECT_GT(snap.value().stats.decodeSeconds, 0.0);
        const auto kv = engine.kvHistory(ids[i]);
        ASSERT_TRUE(kv.ok());
        EXPECT_EQ(kv.value(), refKv[i]) << "request " << i;
    }
    // The late request actually waited.
    const auto late = engine.poll(ids[2]);
    ASSERT_TRUE(late.ok());
    EXPECT_GT(late.value().stats.queuedSteps, 0u);
    EXPECT_GE(late.value().stats.queueSeconds, 0.0);
}

TEST(Engine, KvHistoryExposesPerRequestHistories)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 2;
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();
    const auto ids = submitUnbounded(engine, 2, 23);
    for (int step = 0; step < 2; ++step)
        ASSERT_TRUE(engine.step().ok());

    // Each request's history is its own batch-1 column view out of the
    // fused batch: h x 1 snapshots per (token, layer), different
    // between requests.
    const KvCache kv0 = engine.kvHistory(ids[0]).value();
    const KvCache kv1 = engine.kvHistory(ids[1]).value();
    for (const KvCache *kv : {&kv0, &kv1}) {
        ASSERT_EQ(kv->layers(), model.layers);
        ASSERT_EQ(kv->length(), 2u);
        for (std::size_t l = 0; l < model.layers; ++l) {
            for (std::size_t t = 0; t < kv->length(); ++t) {
                EXPECT_EQ(kv->keys(l)[t].rows(), model.hidden);
                EXPECT_EQ(kv->keys(l)[t].cols(), 1u);
                EXPECT_EQ(kv->values(l)[t].rows(), model.hidden);
                EXPECT_EQ(kv->values(l)[t].cols(), 1u);
            }
        }
    }
    EXPECT_NE(kv0, kv1);
}

TEST(Engine, CreateRejectsEachBadKnob)
{
    const auto model = tinyConfig(16, 1, 2, 32);
    const EngineOptions good = tinyEngineOptions();
    ASSERT_TRUE(Engine::create(model, good).ok());

    {
        EngineOptions o = good;
        o.exec.threads = kMaxLutGemmThreads + 1;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("threads"),
                  std::string::npos);
    }
    {
        EngineOptions o = good;
        o.model.mu = 0;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("mu"), std::string::npos);
    }
    {
        EngineOptions o = good;
        o.model.mu = 1; // valid range, but hFFLUT needs mu >= 2
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("mu >= 2"),
                  std::string::npos);
    }
    {
        EngineOptions o = good;
        o.exec.blockRows = 0;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("blockRows"),
                  std::string::npos);
    }
    for (const int fracBits : {1, 70}) {
        // Accepted here, the first step would die in preAlignInto.
        EngineOptions o = good;
        o.exec.alignFracBits = fracBits;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok()) << fracBits;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("alignFracBits"),
                  std::string::npos);
    }
    for (const int fracBits : {57, 60}) {
        // In range, but FC2's 32-column rows sum mantissas of up to
        // 2^(f + 1) past int64: f + 1 + log2(32) > 62.
        EngineOptions o = good;
        o.exec.alignFracBits = fracBits;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok()) << fracBits;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("32-column"),
                  std::string::npos)
            << r.status().message();
    }
    {
        EngineOptions o = good;
        o.exec.alignFracBits = 56;
        EXPECT_TRUE(Engine::create(model, o).ok());
        // 8-column scale groups narrow the bound to f + 1 + 3 <= 62.
        o.exec.alignFracBits = 58;
        o.model.groupSize = 8;
        EXPECT_TRUE(Engine::create(model, o).ok());
    }
    {
        EngineOptions o = good;
        o.maxBatch = 0;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("maxBatch"),
                  std::string::npos);
    }
    {
        EngineOptions o = good;
        o.model.weightBits = 0;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    }
    {
        const auto r = Engine::create(tinyConfig(0, 0, 0, 0), good);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    }
    {
        // hidden not divisible by heads
        const auto r = Engine::create(tinyConfig(10, 1, 3, 32), good);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("heads"), std::string::npos);
    }
}

TEST(Engine, SubmitRejectsOverCapacityTraffic)
{
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 1;
    opts.maxQueue = 1;
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    ASSERT_TRUE(engine.submit({1, 1}).ok()); // live
    ASSERT_TRUE(engine.submit({1, 2}).ok()); // queued
    const auto rejected = engine.submit({1, 3});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::ResourceExhausted);
    EXPECT_NE(rejected.status().message().find("maxBatch"),
              std::string::npos);

    // Retiring traffic frees capacity again.
    ASSERT_TRUE(engine.step().ok()); // decodes + retires the live one
    EXPECT_TRUE(engine.submit({1, 3}).ok());
}

TEST(Engine, LifecycleErrorsAreRecoverable)
{
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    // Nothing live: step() refuses without dying.
    const auto idle = engine.step();
    ASSERT_FALSE(idle.ok());
    EXPECT_EQ(idle.status().code(), StatusCode::FailedPrecondition);

    // Unknown ids.
    EXPECT_EQ(engine.poll(99).status().code(), StatusCode::NotFound);
    EXPECT_EQ(engine.cancel(99).code(), StatusCode::NotFound);
    EXPECT_EQ(engine.resetKv(99).code(), StatusCode::NotFound);
    EXPECT_EQ(engine.kvHistory(99).status().code(), StatusCode::NotFound);

    const auto id = engine.submit({1, 7});
    ASSERT_TRUE(id.ok());

    // Finished requests reject further mutation but stay pollable.
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(id.value()).value().state,
              RequestState::Finished);
    EXPECT_EQ(engine.cancel(id.value()).code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(engine.resetKv(id.value()).code(),
              StatusCode::FailedPrecondition);
}

TEST(Engine, CancelFreesTheSlotForQueuedTraffic)
{
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 1;
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    const auto first = engine.submit({4, 1});
    const auto second = engine.submit({1, 2});
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(engine.liveRequests(), 1u);
    EXPECT_EQ(engine.queuedRequests(), 1u);

    ASSERT_TRUE(engine.cancel(first.value()).ok());
    EXPECT_EQ(engine.liveRequests(), 0u);
    EXPECT_EQ(engine.poll(first.value()).value().state,
              RequestState::Cancelled);

    // Admission stays FIFO: a submit after the cancellation must not
    // jump the earlier queued request into the freed slot.
    const auto third = engine.submit({1, 3});
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(engine.liveRequests(), 0u);
    EXPECT_EQ(engine.queuedRequests(), 2u);

    // With a free slot and a non-empty queue, the scored workload is
    // the prospective batch the next step will admit, not the (empty)
    // active set.
    EXPECT_FALSE(engine.workloadTasks().empty());

    // The next step admits the older request into the freed slot,
    // decodes + retires it, and refills the slot with the younger one
    // (which decodes from the following step).
    const auto stats = engine.step();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().admitted, 2u);
    EXPECT_EQ(stats.value().liveRequests, 1u);
    EXPECT_EQ(stats.value().retired, 1u);
    EXPECT_EQ(engine.poll(second.value()).value().state,
              RequestState::Finished);
    EXPECT_EQ(engine.poll(third.value()).value().state,
              RequestState::Active);
    EXPECT_EQ(engine.poll(third.value()).value().stats.tokensDecoded,
              0u);
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(third.value()).value().state,
              RequestState::Finished);
}

TEST(Engine, ResetKvMidSequenceReplaysTheWholeSequence)
{
    // Reset with a non-trivial KV history must restart *every* later
    // step from an empty context, not just the first (the KV clear has
    // to reach all layers of every request): the post-reset steps are
    // bit-identical to a fresh hand-rolled run from the same hidden.
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(tinyConfig(16, 2, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();
    const auto ids = submitUnbounded(engine, 2, 17);

    for (int step = 0; step < 3; ++step)
        ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(ids[0]).value().kvLength, 3u);

    for (const RequestId id : ids)
        ASSERT_TRUE(engine.resetKv(id).ok());
    EXPECT_EQ(engine.poll(ids[0]).value().kvLength, 0u);
    MatrixD refHidden = gatherHidden(engine, ids);
    std::vector<std::vector<MatrixD>> kCache(2), vCache(2);
    for (int step = 0; step < 3; ++step) {
        ASSERT_TRUE(engine.step().ok());
        refHidden = handRolledStep(engine.model(), opts, refHidden,
                                   kCache, vCache);
        EXPECT_EQ(gatherHidden(engine, ids), refHidden)
            << "step " << step;
    }

    // The replayed KV history is complete, per request and layer.
    for (const RequestId id : ids) {
        EXPECT_EQ(engine.poll(id).value().kvLength, 3u);
        const KvCache cache = engine.kvHistory(id).value();
        EXPECT_EQ(cache.layers(), 2u);
        EXPECT_EQ(cache.length(), 3u);
        EXPECT_GT(cache.bytes(), 0u);
    }
}

TEST(Engine, ResetKvRestartsARequestDeterministically)
{
    // resetKv drops the context but keeps the hidden state: the next
    // step is exactly a first step from that hidden.
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    const auto ids = submitUnbounded(engine, 1, 9);
    ASSERT_TRUE(engine.step().ok());
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(ids[0]).value().kvLength, 2u);
    const MatrixD input = gatherHidden(engine, ids);

    ASSERT_TRUE(engine.resetKv(ids[0]).ok());
    EXPECT_EQ(engine.poll(ids[0]).value().kvLength, 0u);
    EXPECT_EQ(gatherHidden(engine, ids), input);
    ASSERT_TRUE(engine.step().ok());
    std::vector<std::vector<MatrixD>> kCache(1), vCache(1);
    EXPECT_EQ(gatherHidden(engine, ids),
              handRolledStep(engine.model(), opts, input, kCache, vCache));
    EXPECT_EQ(engine.poll(ids[0]).value().kvLength, 1u);

    ASSERT_TRUE(engine.cancel(ids[0]).ok());
}

TEST(Engine, MaxLayersTruncatesModelAndWorkload)
{
    EngineOptions opts = tinyEngineOptions();
    opts.model.maxLayers = 2;
    auto created = Engine::create(tinyConfig(16, 5, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();
    EXPECT_EQ(engine.model().layers(), 2u);
    EXPECT_EQ(engine.model().config().layers, 2u);
    EXPECT_GT(engine.model().storageBytes(), 0u);
    EXPECT_GT(engine.model().packedKeyBytes(), 0u);

    ASSERT_TRUE(engine.submit({2, 1}).ok());
    EXPECT_EQ(engine.workloadTasks().size(), 2u * 10u);
    for (int step = 0; step < 2; ++step) {
        const auto stats = engine.step();
        ASSERT_TRUE(stats.ok());
        EXPECT_EQ(stats.value().gemmCalls, 8u);
    }

    // The KV arena, and the budget floor, cover the materialized
    // layers only: one block per kept layer is enough.
    EngineOptions tight = opts;
    tight.kvBudgetBytes = 2 * tight.kvBlockTokens * 2 * 16 * sizeof(double);
    EXPECT_TRUE(Engine::create(tinyConfig(16, 5, 2, 32), tight).ok());
}

TEST(Engine, WorkloadTasksTrackTheLiveRaggedBatch)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    EXPECT_TRUE(engine.workloadTasks().empty());

    const auto shortReq = engine.submit({1, 1});
    const auto longReq = engine.submit({3, 2});
    ASSERT_TRUE(shortReq.ok());
    ASSERT_TRUE(longReq.ok());

    // Fresh batch: 2 live requests, both about to attend 1 entry.
    WorkloadOptions wl;
    wl.batch = 2;
    wl.weightBits = opts.model.weightBits;
    wl.groupSize = opts.model.groupSize;
    wl.hasOffset = opts.model.useOffset;
    wl.shards = engine.shards();
    expectTasksEqual(
        engine.workloadTasks(),
        decodeStepWorkload(model, wl, std::vector<std::size_t>{1, 1}));

    // One step retires the short request; the survivor is now one
    // batch column attending over 2 entries next step.
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.liveRequests(), 1u);
    wl.batch = 1;
    expectTasksEqual(
        engine.workloadTasks(),
        decodeStepWorkload(model, wl, std::vector<std::size_t>{2}));

    // A request joining mid-flight widens the scored batch again:
    // one aged column (ctx 3 after this step) + one fresh column.
    // Budget 2, so it outlives the fused step below.
    ASSERT_TRUE(engine.step().ok());
    const auto joined = engine.submit({2, 3});
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(engine.queuedRequests(), 0u); // free slot, direct admit
    wl.batch = 2;
    expectTasksEqual(
        engine.workloadTasks(),
        decodeStepWorkload(model, wl, std::vector<std::size_t>{3, 1}));
    const auto fused = engine.step();
    ASSERT_TRUE(fused.ok());
    EXPECT_EQ(fused.value().liveRequests, 2u);
}

TEST(Engine, WorkloadTasksMatchDecodeStepWorkload)
{
    // Every GEMM and vector field of a fresh batch's task list, with
    // and without the vector kernels, under a non-default quant config.
    const auto model = tinyConfig(32, 2, 4, 64);
    for (const bool includeVector : {true, false}) {
        EngineOptions opts = tinyEngineOptions();
        opts.maxBatch = 3;
        opts.includeVector = includeVector;
        opts.model.groupSize = 16;
        opts.model.useOffset = true;
        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok());
        Engine &engine = *created.value();
        submitUnbounded(engine, 3, 1);

        WorkloadOptions wl;
        wl.batch = 3;
        wl.includeVector = includeVector;
        wl.weightBits = 3;
        wl.groupSize = 16;
        wl.hasOffset = true;
        wl.shards = engine.shards();
        const auto tasks = engine.workloadTasks();
        expectTasksEqual(tasks, decodeStepWorkload(
                                    model, wl,
                                    std::vector<std::size_t>{1, 1, 1}));
        const std::size_t perLayer = includeVector ? 10u : 4u;
        EXPECT_EQ(tasks.size(), perLayer * engine.model().layers());
    }
}

TEST(Engine, WorkloadTasksCarryQuantConfig)
{
    EngineOptions opts = tinyEngineOptions();
    opts.includeVector = false;
    opts.model.weightBits = 2;
    opts.model.groupSize = 32;
    opts.model.useOffset = false;
    const auto model = tinyConfig(32, 1, 2, 64);
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();
    ASSERT_TRUE(engine.submit({1, 1}).ok());
    ASSERT_TRUE(engine.submit({1, 2}).ok());

    WorkloadOptions wl;
    wl.batch = 2;
    wl.weightBits = 2;
    wl.includeVector = false;
    wl.groupSize = 32;
    wl.hasOffset = false;
    wl.shards = engine.shards();
    const auto tasks = engine.workloadTasks();
    expectTasksEqual(tasks, decodeStepWorkload(
                                model, wl, std::vector<std::size_t>{1, 1}));
    EXPECT_EQ(tasks.size(), 4u);
    for (const auto &task : tasks) {
        ASSERT_EQ(task.kind, KernelTask::Kind::Gemm);
        EXPECT_EQ(task.gemm.weightBits, 2);
        EXPECT_EQ(task.gemm.groupSize, 32u);
        EXPECT_FALSE(task.gemm.hasOffset);
    }
}

TEST(Engine, SimulateScoresTheLiveBatch)
{
    auto created =
        Engine::create(tinyConfig(32, 2, 4, 64), tinyEngineOptions());
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();
    ASSERT_TRUE(engine.submit({1, 1}).ok());
    ASSERT_TRUE(engine.submit({3, 2}).ok());
    ASSERT_TRUE(engine.step().ok());
    ASSERT_EQ(engine.liveRequests(), 1u);

    // The scored workload is the emitted one: the same tasks through a
    // bare Accelerator give the identical score.
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    const auto sim = engine.simulate(hw);
    EXPECT_GT(sim.totalCycles, 0.0);
    EXPECT_GT(sim.seconds, 0.0);
    const Accelerator acc(hw);
    const auto direct = acc.runWorkload(engine.workloadTasks());
    EXPECT_EQ(sim.totalCycles, direct.totalCycles);
    EXPECT_EQ(sim.energy.totalJoules(), direct.energy.totalJoules());
}

TEST(Engine, BackendsAgreeOnTheFusedPath)
{
    // The fused step through Reference and Simd must be bit-identical
    // (the Simd path is the only one consuming pre-packed keys).
    const auto model = tinyConfig(24, 1, 2, 48);
    MatrixD outputs[2];
    const LutGemmBackend backends[] = {LutGemmBackend::Reference,
                                       LutGemmBackend::Simd};
    for (int i = 0; i < 2; ++i) {
        EngineOptions opts = tinyEngineOptions();
        opts.model.bcqIterations = 1;
        opts.exec.backend = backends[i];
        opts.exec.threads = 2;
        opts.exec.blockRows = 8;
        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok());
        Engine &engine = *created.value();
        if (backends[i] == LutGemmBackend::Simd)
            EXPECT_GT(engine.model().packedKeyBytes(), 0u);
        else
            EXPECT_EQ(engine.model().packedKeyBytes(), 0u);
        const auto a = engine.submit({2, 5});
        const auto b = engine.submit({2, 6});
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_TRUE(engine.step().ok());
        ASSERT_TRUE(engine.step().ok());
        outputs[i] = engine.poll(a.value()).value().hidden;
        EXPECT_EQ(engine.poll(b.value()).value().state,
                  RequestState::Finished);
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(Engine, OpSecondsSpanTheStep)
{
    // The engine reads its clock at every op boundary: a VirtualClock
    // that does not move during the step gives every span 0, and on
    // the steady clock the spans are non-negative and, with the
    // planning/gather remainder, add up to the step's seconds.
    const auto model = tinyConfig(32, 2, 2, 64);
    VirtualClock virtualClock;
    SteadyClock steadyClock;
    for (const EngineClock *clock :
         {static_cast<const EngineClock *>(&virtualClock),
          static_cast<const EngineClock *>(&steadyClock)}) {
        EngineOptions opts = tinyEngineOptions();
        opts.clock = clock;
        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok()) << created.status().toString();
        Engine &engine = *created.value();
        RequestOptions req;
        req.maxTokens = 2;
        req.promptTokens = 5;
        ASSERT_TRUE(engine.submit(req).ok());
        for (int i = 0; i < 2; ++i) {
            const auto stats = engine.step();
            ASSERT_TRUE(stats.ok()) << stats.status().toString();
            double sum = 0.0;
            for (const double s : stats.value().opSeconds) {
                EXPECT_GE(s, 0.0);
                sum += s;
            }
            EXPECT_GE(stats.value().otherSeconds, 0.0);
            if (clock == &virtualClock) {
                EXPECT_EQ(sum, 0.0);
                EXPECT_EQ(stats.value().otherSeconds, 0.0);
                EXPECT_EQ(stats.value().seconds, 0.0);
            } else {
                EXPECT_GT(stats.value().opSecondsOf(LayerOp::Attention),
                          0.0);
                EXPECT_LE(sum, stats.value().seconds + 1e-12);
                EXPECT_NEAR(sum + stats.value().otherSeconds,
                            stats.value().seconds, 1e-12);
            }
        }
    }
}

} // namespace
} // namespace serve
} // namespace figlut
