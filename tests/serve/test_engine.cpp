/**
 * @file
 * Tests for the request-level serving engine (serve/engine.h).
 *
 * The load-bearing suite is the differential one: an Engine decoding N
 * concurrent requests with ragged token budgets and staggered
 * admission must produce, per request, bit-identical hidden states and
 * KV histories to N independent batch-1 Sessions — continuous batching
 * is an amortization, never a numerics change. The rest covers the
 * Status-based rejection paths (construction knobs, capacity,
 * lifecycle) and the live-batch analytic workload.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/synthetic.h"
#include "model/workload.h"
#include "runtime/session.h"
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
 * The tentpole differential: one Engine serving N requests of
 * different ages (ragged budgets, one submitted mid-flight so it waits
 * in the queue) against N independent batch-1 Sessions, self-fed from
 * the same seeds. Hidden states are compared per request after *every*
 * fused step, KV histories, counters, and stats at retirement.
 */
TEST(Engine, MatchesIndependentBatch1Sessions)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 2; // forces the third request through the queue

    constexpr std::size_t kRequests = 3;
    const std::size_t budgets[kRequests] = {2, 4, 3};
    const uint64_t seeds[kRequests] = {101, 202, 303};

    // Reference trajectories: per request, a batch-1 Session self-fed
    // from the request's synthetic initial hidden state.
    std::vector<std::vector<MatrixD>> refHidden(kRequests);
    std::vector<KvCache> refKv;
    std::vector<LutGemmCounters> refCounters(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        SessionOptions so;
        so.quant = opts.model;
        so.exec = opts.exec;
        so.batch = 1;
        Session session(model, so);
        Rng rng(seeds[i]);
        MatrixD hidden =
            syntheticActivations(model.hidden, 1, rng);
        for (std::size_t t = 0; t < budgets[i]; ++t) {
            const auto r = session.runDecodeStep(hidden);
            hidden = r.hidden;
            refHidden[i].push_back(hidden);
            refCounters[i] += r.counters;
        }
        refKv.push_back(session.kv(0));
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

    // Malformed injected input.
    const Status bad = engine.provideInput(id.value(), MatrixD(8, 1));
    EXPECT_EQ(bad.code(), StatusCode::InvalidArgument);

    // Finished requests reject further mutation but stay pollable.
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(id.value()).value().state,
              RequestState::Finished);
    EXPECT_EQ(engine.cancel(id.value()).code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(engine.resetKv(id.value()).code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(engine
                  .provideInput(id.value(),
                                MatrixD(16, 1))
                  .code(),
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

TEST(Engine, ResetKvRestartsARequestDeterministically)
{
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    const auto id = engine.submit({0, 9}); // unbounded
    ASSERT_TRUE(id.ok());
    const MatrixD input = engine.poll(id.value()).value().hidden;

    ASSERT_TRUE(engine.step().ok());
    const MatrixD first = engine.poll(id.value()).value().hidden;
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(id.value()).value().kvLength, 2u);

    ASSERT_TRUE(engine.resetKv(id.value()).ok());
    EXPECT_EQ(engine.poll(id.value()).value().kvLength, 0u);
    ASSERT_TRUE(engine.provideInput(id.value(), input).ok());
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(id.value()).value().hidden, first);

    ASSERT_TRUE(engine.cancel(id.value()).ok());
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
    auto tasks = engine.workloadTasks();
    auto expected =
        decodeStepWorkload(model, wl, std::vector<std::size_t>{1, 1});
    ASSERT_EQ(tasks.size(), expected.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].kind, expected[i].kind) << "task " << i;
        if (tasks[i].kind == KernelTask::Kind::Gemm) {
            EXPECT_EQ(tasks[i].gemm.batch, 2u);
        } else {
            EXPECT_EQ(tasks[i].vector.adds, expected[i].vector.adds)
                << "task " << i;
            EXPECT_EQ(tasks[i].vector.muls, expected[i].vector.muls)
                << "task " << i;
            EXPECT_EQ(tasks[i].vector.specials,
                      expected[i].vector.specials)
                << "task " << i;
        }
    }

    // One step retires the short request; the survivor is now one
    // batch column attending over 2 entries next step.
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.liveRequests(), 1u);
    wl.batch = 1;
    tasks = engine.workloadTasks();
    expected =
        decodeStepWorkload(model, wl, std::vector<std::size_t>{2});
    ASSERT_EQ(tasks.size(), expected.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].kind == KernelTask::Kind::Vector) {
            EXPECT_EQ(tasks[i].vector.total(),
                      expected[i].vector.total())
                << "task " << i;
        }
    }

    // A request joining mid-flight widens the scored batch again:
    // one aged column (ctx 3 after this step) + one fresh column.
    // Budget 2, so it outlives the fused step below and the engine is
    // still live for the simulate() check at the end.
    ASSERT_TRUE(engine.step().ok());
    const auto joined = engine.submit({2, 3});
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(engine.queuedRequests(), 0u); // free slot, direct admit
    wl.batch = 2;
    tasks = engine.workloadTasks();
    expected =
        decodeStepWorkload(model, wl, std::vector<std::size_t>{3, 1});
    ASSERT_EQ(tasks.size(), expected.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].kind == KernelTask::Kind::Vector) {
            EXPECT_EQ(tasks[i].vector.total(),
                      expected[i].vector.total())
                << "task " << i;
        }
    }
    const auto fused = engine.step();
    ASSERT_TRUE(fused.ok());
    EXPECT_EQ(fused.value().liveRequests, 2u);

    // The scored workload is the emitted one.
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    const auto sim = engine.simulate(hw);
    EXPECT_GT(sim.totalCycles, 0.0);
    const Accelerator acc(hw);
    const auto direct = acc.runWorkload(engine.workloadTasks());
    EXPECT_EQ(sim.totalCycles, direct.totalCycles);
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

} // namespace
} // namespace serve
} // namespace figlut
