/**
 * @file
 * Trace-replay tests: determinism, shed/queue behavior, and the pin
 * that sim::replayTrace() mirrors serve::Engine's continuous-batching
 * schedule exactly — an Engine driven on a VirtualClock advanced by
 * the identical per-step Accelerator scores produces bit-identical
 * shed sets, token completion times, and queue depths.
 */

#include <unordered_map>

#include <gtest/gtest.h>

#include "figlut/figlut.h"

namespace figlut {
namespace {

OptConfig
tinyModel()
{
    OptConfig model;
    model.name = "OPT-replay-test";
    model.hidden = 64;
    model.layers = 1;
    model.heads = 2;
    model.ffn = 128;
    return model;
}

HwConfig
testHw()
{
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    return hw;
}

/** A small trace with simultaneous arrivals to force queuing. */
std::vector<ReplayRequest>
contendedTrace()
{
    return {
        {0.0, 4, 3}, {0.0, 6, 2}, {0.0, 5, 1}, {0.0, 4, 2},
        {1e-4, 3, 2}, {2e-3, 8, 3},
    };
}

TEST(TraceReplayTest, Deterministic)
{
    ReplayOptions options;
    options.maxBatch = 2;
    options.maxQueue = 2;
    const auto trace = contendedTrace();
    const auto a = replayTrace(tinyModel(), testHw(), options, trace);
    const auto b = replayTrace(tinyModel(), testHw(), options, trace);
    ASSERT_EQ(a.steps, b.steps);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    EXPECT_EQ(a.endS, b.endS);
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].shed, b.requests[i].shed) << i;
        EXPECT_EQ(a.requests[i].tokenTimesS,
                  b.requests[i].tokenTimesS)
            << i;
    }
    EXPECT_EQ(a.stepSeconds, b.stepSeconds);
    EXPECT_EQ(a.queueDepth, b.queueDepth);
}

TEST(TraceReplayTest, ShedsBeyondQueueCapacity)
{
    ReplayOptions options;
    options.maxBatch = 1;
    options.maxQueue = 1;
    // Four simultaneous arrivals into 1 slot + 1 queue entry: the
    // last two are shed.
    const std::vector<ReplayRequest> trace{
        {0.0, 2, 1}, {0.0, 2, 1}, {0.0, 2, 1}, {0.0, 2, 1}};
    const auto result =
        replayTrace(tinyModel(), testHw(), options, trace);
    EXPECT_FALSE(result.requests[0].shed);
    EXPECT_FALSE(result.requests[1].shed);
    EXPECT_TRUE(result.requests[2].shed);
    EXPECT_TRUE(result.requests[3].shed);
    EXPECT_TRUE(result.requests[2].tokenTimesS.empty());
}

TEST(TraceReplayTest, TokenBudgetsAndMonotoneVirtualTime)
{
    ReplayOptions options;
    options.maxBatch = 2;
    options.maxQueue = 8;
    const auto trace = contendedTrace();
    const auto result =
        replayTrace(tinyModel(), testHw(), options, trace);
    ASSERT_EQ(result.requests.size(), trace.size());
    double lastEnd = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &r = result.requests[i];
        ASSERT_FALSE(r.shed) << i;
        EXPECT_EQ(r.tokenTimesS.size(), trace[i].outputTokens) << i;
        EXPECT_GE(r.queueS, 0.0) << i;
        double prev = r.arrivalS;
        for (const double t : r.tokenTimesS) {
            EXPECT_GT(t, prev) << i;
            prev = t;
        }
        lastEnd = std::max(lastEnd, r.tokenTimesS.back());
    }
    EXPECT_DOUBLE_EQ(result.endS, lastEnd);
    EXPECT_EQ(result.stepSeconds.size(), result.steps);
    EXPECT_EQ(result.queueDepth.size(), result.steps);
    for (const double s : result.stepSeconds)
        EXPECT_GT(s, 0.0);
}

TEST(TraceReplayTest, IdleGapJumpsToNextArrival)
{
    ReplayOptions options;
    options.maxBatch = 4;
    // Two arrivals far apart: the second request's first token lands
    // shortly after its own arrival, not after an accumulated idle.
    const std::vector<ReplayRequest> trace{{0.0, 2, 1}, {10.0, 2, 1}};
    const auto result =
        replayTrace(tinyModel(), testHw(), options, trace);
    ASSERT_FALSE(result.requests[1].shed);
    EXPECT_GE(result.requests[1].tokenTimesS.front(), 10.0);
    EXPECT_LT(result.requests[1].tokenTimesS.front(), 10.0 + 1.0);
    EXPECT_DOUBLE_EQ(result.requests[1].queueS, 0.0);
}

/**
 * The load-bearing pin: a real serve::Engine on a VirtualClock,
 * stepped through the same trace and advanced by the identical
 * accelerator score per step, reproduces replayTrace() bit for bit —
 * shed set, queue-depth series, queue waits, and every token
 * completion time. Parameterized by the prefill chunk budget so the
 * chunked schedule (prompts split across steps, decode columns
 * interleaved) is pinned with the same rigor as the whole-prompt one.
 */
void
expectEngineMatchesReplay(std::size_t prefillChunkTokens)
{
    const OptConfig model = tinyModel();
    const HwConfig hw = testHw();
    ReplayOptions options;
    options.maxBatch = 2;
    options.maxQueue = 2;
    options.prefillChunkTokens = prefillChunkTokens;
    const auto trace = contendedTrace();
    const auto replay = replayTrace(model, hw, options, trace);

    serve::VirtualClock clock;
    serve::EngineOptions engineOptions;
    engineOptions.clock = &clock;
    engineOptions.maxBatch = options.maxBatch;
    engineOptions.maxQueue = options.maxQueue;
    engineOptions.prefillChunkTokens = options.prefillChunkTokens;
    engineOptions.model.weightBits = options.weightBits;
    engineOptions.model.groupSize = options.groupSize;
    engineOptions.model.useOffset = options.hasOffset;
    engineOptions.model.bcqIterations = 1;
    engineOptions.includeVector = options.includeVector;
    auto created = serve::Engine::create(model, engineOptions);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    serve::Engine &engine = *created.value();

    const Accelerator accelerator(hw);
    WorkloadOptions workload;
    workload.weightBits = options.weightBits;
    workload.includeVector = options.includeVector;
    workload.groupSize = options.groupSize;
    workload.hasOffset = options.hasOffset;

    std::vector<bool> shed(trace.size(), false);
    std::vector<std::vector<double>> tokenTimes(trace.size());
    std::vector<std::size_t> queueDepth;
    std::unordered_map<serve::RequestId, std::size_t> indexOf;

    std::size_t next = 0;
    while (true) {
        while (next < trace.size() &&
               trace[next].arrivalS <= clock.now()) {
            serve::RequestOptions request;
            request.maxTokens = trace[next].outputTokens;
            request.promptTokens = trace[next].promptTokens;
            request.seed = 100 + next;
            const auto id = engine.submit(request);
            if (id.ok())
                indexOf.emplace(id.value(), next);
            else
                shed[next] = true;
            ++next;
        }
        if (engine.liveRequests() == 0 &&
            engine.queuedRequests() == 0) {
            if (next == trace.size())
                break;
            clock.set(trace[next].arrivalS);
            continue;
        }

        const auto stats = engine.step();
        ASSERT_TRUE(stats.ok()) << stats.status().toString();
        const Status invariants = engine.checkInvariants();
        ASSERT_TRUE(invariants.ok()) << invariants.toString();
        const serve::StepStats &step = stats.value();
        // Price this exact fused batch the way the replay does: the
        // executed step's own per-column causal context lengths
        // (prefill chunks included), in gather order.
        ASSERT_FALSE(step.columnContexts.empty());
        workload.batch = step.columnContexts.size();
        const double stepS =
            accelerator
                .runWorkload(decodeStepWorkload(model, workload,
                                                step.columnContexts))
                .seconds;
        clock.advance(stepS);
        for (const serve::RequestId id : step.decodedIds)
            tokenTimes[indexOf.at(id)].push_back(clock.now());
        queueDepth.push_back(step.queueDepth);
    }

    // Bit-identical schedule: shed set, queue depths, token times.
    ASSERT_EQ(queueDepth.size(), replay.steps);
    EXPECT_EQ(queueDepth, replay.queueDepth);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(shed[i], replay.requests[i].shed) << i;
        EXPECT_EQ(tokenTimes[i], replay.requests[i].tokenTimesS) << i;
    }
    // The engine's own queue-wait hook agrees with the replay.
    for (const auto &[id, i] : indexOf) {
        const auto snapshot = engine.poll(id);
        ASSERT_TRUE(snapshot.ok()) << i;
        EXPECT_DOUBLE_EQ(snapshot.value().stats.queueSeconds,
                         replay.requests[i].queueS)
            << i;
    }
}

TEST(TraceReplayTest, MatchesEngineOnVirtualClock)
{
    expectEngineMatchesReplay(/*prefillChunkTokens=*/0);
}

TEST(TraceReplayTest, MatchesEngineWithChunkedPrefill)
{
    // Chunk 2 splits every contendedTrace() prompt (3..8 tokens)
    // across several steps and stalls late prefills behind the budget.
    expectEngineMatchesReplay(/*prefillChunkTokens=*/2);
}

/**
 * The governed twin of the pin above: with a KV byte budget, the
 * EvictLongestIdle policy, injected allocation faults AND clock skew,
 * and a per-request deadline in play, the replay still reproduces the
 * engine's schedule bit for bit — including which requests are shed,
 * evicted, or expired, and when every surviving token lands.
 */
TEST(TraceReplayTest, GovernedReplayMatchesEngineOnVirtualClock)
{
    const OptConfig model = tinyModel();
    const HwConfig hw = testHw();
    // Simultaneous arrivals, so the engine's deadline base (submit
    // time) and the replay's (arrival time) coincide exactly.
    const std::vector<ReplayRequest> trace{
        {0.0, 4, 3, 0.0}, {0.0, 6, 2, 0.0}, {0.0, 5, 2, 0.0},
        {0.0, 3, 2, 1e-6}, {0.0, 4, 2, 0.0},
    };
    CountingFaultInjector faults(/*failEvery=*/7, /*skewS=*/0.05);

    ReplayOptions options;
    options.maxBatch = 2;
    options.maxQueue = 3;
    options.kvBlockTokens = 2;
    // Six blocks cannot hold two worst-case contexts at once, so the
    // reservation pass must evict or shed mid-trace.
    options.kvBudgetBytes = 6 * 2 * 2 * model.hidden * sizeof(double);
    options.policy = serve::DegradationPolicy::EvictLongestIdle;
    options.faults = &faults;
    const auto replay = replayTrace(model, hw, options, trace);

    // The scenario must actually exercise the governance paths, or
    // the pin below is vacuous.
    std::size_t evictions = 0, sheds = 0, misses = 0;
    for (const auto &r : replay.requests) {
        evictions += r.evictions;
        sheds += r.shed ? 1 : 0;
        misses += r.deadlineMiss ? 1 : 0;
    }
    EXPECT_GT(evictions + sheds, 0u);
    EXPECT_GT(misses, 0u);

    serve::VirtualClock clock;
    serve::EngineOptions engineOptions;
    engineOptions.clock = &clock;
    engineOptions.maxBatch = options.maxBatch;
    engineOptions.maxQueue = options.maxQueue;
    engineOptions.model.weightBits = options.weightBits;
    engineOptions.model.groupSize = options.groupSize;
    engineOptions.model.useOffset = options.hasOffset;
    engineOptions.model.bcqIterations = 1;
    engineOptions.includeVector = options.includeVector;
    engineOptions.kvBudgetBytes = options.kvBudgetBytes;
    engineOptions.kvBlockTokens = options.kvBlockTokens;
    engineOptions.policy = options.policy;
    engineOptions.faults = &faults;
    auto created = serve::Engine::create(model, engineOptions);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    serve::Engine &engine = *created.value();

    const Accelerator accelerator(hw);
    WorkloadOptions workload;
    workload.weightBits = options.weightBits;
    workload.includeVector = options.includeVector;
    workload.groupSize = options.groupSize;
    workload.hasOffset = options.hasOffset;

    std::vector<bool> shed(trace.size(), false);
    std::vector<bool> deadlineMiss(trace.size(), false);
    std::vector<std::size_t> evicted(trace.size(), 0);
    std::vector<std::vector<double>> tokenTimes(trace.size());
    std::vector<std::size_t> queueDepth;
    std::unordered_map<serve::RequestId, std::size_t> indexOf;

    std::size_t next = 0, rounds = 0;
    while (true) {
        ASSERT_LT(++rounds, 10000u) << "engine failed to drain";
        while (next < trace.size() &&
               trace[next].arrivalS <= clock.now()) {
            serve::RequestOptions request;
            request.maxTokens = trace[next].outputTokens;
            request.promptTokens = trace[next].promptTokens;
            request.deadlineS = trace[next].deadlineS;
            request.seed = 100 + next;
            const auto id = engine.submit(request);
            if (id.ok())
                indexOf.emplace(id.value(), next);
            else
                shed[next] = true;
            ++next;
        }
        if (engine.liveRequests() == 0 &&
            engine.queuedRequests() == 0) {
            if (next == trace.size())
                break;
            clock.set(trace[next].arrivalS);
            continue;
        }

        const auto stats = engine.step();
        ASSERT_TRUE(stats.ok()) << stats.status().toString();
        const Status invariants = engine.checkInvariants();
        ASSERT_TRUE(invariants.ok()) << invariants.toString();
        const serve::StepStats &step = stats.value();
        // Same bookkeeping as the replay and the load driver: an
        // eviction discards the life's recorded tokens, shed and
        // deadline drops are terminal.
        for (const serve::RequestId id : step.evictedIds) {
            const std::size_t i = indexOf.at(id);
            tokenTimes[i].clear();
            evicted[i] += 1;
        }
        for (const serve::RequestId id : step.shedIds) {
            const std::size_t i = indexOf.at(id);
            tokenTimes[i].clear();
            shed[i] = true;
        }
        for (const serve::RequestId id : step.deadlineIds) {
            const std::size_t i = indexOf.at(id);
            tokenTimes[i].clear();
            deadlineMiss[i] = true;
        }
        // Governance-only steps do no work, advance no time, and are
        // not recorded — exactly like the replay's `continue`. A
        // pure-prefill step IS work and is priced like any other.
        if (step.prefillTokens + step.decodeTokens == 0)
            continue;
        workload.batch = step.columnContexts.size();
        const double stepS =
            accelerator
                .runWorkload(decodeStepWorkload(model, workload,
                                                step.columnContexts))
                .seconds;
        clock.advance(stepS);
        for (const serve::RequestId id : step.decodedIds)
            tokenTimes[indexOf.at(id)].push_back(clock.now());
        queueDepth.push_back(step.queueDepth);
    }

    ASSERT_EQ(queueDepth.size(), replay.steps);
    EXPECT_EQ(queueDepth, replay.queueDepth);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(shed[i], replay.requests[i].shed) << i;
        EXPECT_EQ(deadlineMiss[i], replay.requests[i].deadlineMiss)
            << i;
        EXPECT_EQ(evicted[i], replay.requests[i].evictions) << i;
        EXPECT_EQ(tokenTimes[i], replay.requests[i].tokenTimesS) << i;
    }
    for (const auto &[id, i] : indexOf) {
        const auto snapshot = engine.poll(id);
        ASSERT_TRUE(snapshot.ok()) << i;
        EXPECT_DOUBLE_EQ(snapshot.value().stats.queueSeconds,
                         replay.requests[i].queueS)
            << i;
    }
}

TEST(VirtualClockTest, AdvanceAndSetAreMonotone)
{
    serve::VirtualClock clock;
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
    clock.advance(1.5);
    EXPECT_DOUBLE_EQ(clock.now(), 1.5);
    clock.set(2.0);
    EXPECT_DOUBLE_EQ(clock.now(), 2.0);
    clock.advance(0.0);
    EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

TEST(VirtualClockTest, EngineStampsWaitFromTheInjectedClock)
{
    serve::VirtualClock clock;
    serve::EngineOptions options;
    options.clock = &clock;
    options.maxBatch = 1;
    options.model.weightBits = 2;
    options.model.bcqIterations = 1;
    auto created = serve::Engine::create(tinyModel(), options);
    ASSERT_TRUE(created.ok());
    serve::Engine &engine = *created.value();

    serve::RequestOptions first;
    first.maxTokens = 2;
    const auto a = engine.submit(first);
    ASSERT_TRUE(a.ok());
    clock.advance(3.0); // the request sits admitted-but-idle
    serve::RequestOptions second;
    second.maxTokens = 1;
    const auto b = engine.submit(second); // queued behind a
    ASSERT_TRUE(b.ok());

    ASSERT_TRUE(engine.step().ok()); // a decodes; wait stamped at 3.0
    clock.advance(1.0);
    ASSERT_TRUE(engine.step().ok()); // a retires, b admitted
    clock.advance(1.0);
    ASSERT_TRUE(engine.step().ok()); // b decodes; waited 0..5

    const auto snapA = engine.poll(a.value());
    ASSERT_TRUE(snapA.ok());
    EXPECT_DOUBLE_EQ(snapA.value().stats.queueSeconds, 3.0);
    // TTFT is stamped at the end of the first decoding step; the
    // virtual clock did not move inside step(), so it equals the wait.
    EXPECT_DOUBLE_EQ(snapA.value().stats.ttftSeconds, 3.0);

    const auto snapB = engine.poll(b.value());
    ASSERT_TRUE(snapB.ok());
    // b was submitted at t=3.0 and its first decoding step began at
    // t=5.0 (after two advances).
    EXPECT_DOUBLE_EQ(snapB.value().stats.queueSeconds, 2.0);
}

} // namespace
} // namespace figlut
