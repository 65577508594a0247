// Tests of the benchmark's own machinery: percentiles, the workload
// generator, the closed loop's determinism, and the gate.

#include <gtest/gtest.h>

#include <cstring>

#include "closed_loop.h"
#include "gate.h"
#include "percentile.h"
#include "workload.h"

namespace perfbench {
namespace {

using figlut::serve::Engine;
using figlut::serve::RequestState;

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i)); // descending: order-free
    return v;
}

TEST(Percentile, NearestRankOnKnownDistributions)
{
    EXPECT_EQ(*percentile(iota(100), 50), 50.0);
    EXPECT_EQ(*percentile(iota(100), 90), 90.0);
    EXPECT_EQ(*percentile(iota(20), 50), 10.0);
    EXPECT_EQ(*percentile(iota(21), 50), 11.0); // ceil(10.5) = 11
    EXPECT_EQ(nearestRank(100, 7), 7u);
    EXPECT_EQ(nearestRank(0.1, 7), 1u);
}

TEST(Percentile, WithheldWithFewerThanTenSamplesBeyond)
{
    EXPECT_FALSE(percentile(iota(19), 50)); // 9 beyond rank 10
    EXPECT_TRUE(percentile(iota(20), 50));  // 10 beyond rank 10
    EXPECT_FALSE(percentile(iota(99), 90)); // 9 beyond rank 90
    EXPECT_TRUE(percentile(iota(100), 90));
    EXPECT_FALSE(percentile({}, 50));
    EXPECT_EQ(samplesBeyond(90, 100), 10u);
}

TEST(Workload, GeneratorIsDeterministicInItsSeed)
{
    for (const std::string &name : workloadNames()) {
        WorkloadSpec spec;
        ASSERT_TRUE(workloadByName(name, &spec));
        const auto a = generateRequests(spec, 7, 40);
        const auto b = generateRequests(spec, 7, 40);
        const auto c = generateRequests(spec, 8, 40);
        const auto prefix = generateRequests(spec, 7, 10);
        ASSERT_EQ(a.size(), 40u);
        for (std::size_t i = 0; i < prefix.size(); ++i)
            EXPECT_EQ(prefix[i].seed, a[i].seed);
        bool differs = false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].promptTokens, b[i].promptTokens);
            EXPECT_EQ(a[i].outputTokens, b[i].outputTokens);
            EXPECT_EQ(a[i].seed, b[i].seed);
            EXPECT_GE(a[i].promptTokens, spec.promptMin);
            EXPECT_LE(a[i].promptTokens, spec.promptMax);
            EXPECT_GE(a[i].outputTokens, spec.outputMin);
            EXPECT_LE(a[i].outputTokens, spec.outputMax);
            differs = differs || a[i].seed != c[i].seed ||
                      a[i].promptTokens != c[i].promptTokens;
        }
        EXPECT_TRUE(differs) << name;
    }
}

/** A small budgeted mix that evicts: fast enough for a unit test. */
WorkloadSpec
smallSpec()
{
    WorkloadSpec spec;
    spec.name = "small";
    spec.clients = 4;
    spec.maxBatch = 2;
    spec.promptMin = 4;
    spec.promptMax = 20;
    spec.outputMin = 8;
    spec.outputMax = 24;
    spec.prefillChunkTokens = 8;
    spec.kvBudgetFraction = 0.7;
    spec.policy = figlut::serve::DegradationPolicy::EvictLongestIdle;
    return spec;
}

struct SmallRun
{
    std::vector<RequestSpec> requests;
    figlut::serve::EngineOptions options;
    LoopResult round;
};

SmallRun
runSmall(const figlut::serve::EngineClock &clock)
{
    SmallRun run;
    const WorkloadSpec spec = smallSpec();
    run.requests = generateRequests(spec, 3, 12);
    run.options = engineOptions(spec, run.requests.size(),
                                figlut::LutGemmBackend::Simd, 1);
    run.options.clock = &clock;
    auto engine = Engine::create(benchModel(), run.options);
    EXPECT_TRUE(engine.ok());
    run.round =
        runClosedLoop(*engine.value(), clock, run.requests, spec.clients);
    return run;
}

TEST(ClosedLoop, SameStepSequenceTwiceOnVirtualClock)
{
    figlut::serve::VirtualClock clockA, clockB;
    const SmallRun a = runSmall(clockA);
    const SmallRun b = runSmall(clockB);
    ASSERT_GT(a.round.workSteps(), 0u);
    ASSERT_EQ(a.round.steps.size(), b.round.steps.size());
    std::size_t evicted = 0;
    for (std::size_t s = 0; s < a.round.steps.size(); ++s) {
        const StepRecord &x = a.round.steps[s], &y = b.round.steps[s];
        EXPECT_EQ(x.prefillTokens, y.prefillTokens) << "step " << s;
        EXPECT_EQ(x.decodeTokens, y.decodeTokens) << "step " << s;
        EXPECT_EQ(x.evicted, y.evicted) << "step " << s;
        EXPECT_EQ(x.shed, y.shed) << "step " << s;
        EXPECT_EQ(x.kvBlocksInUse, y.kvBlocksInUse) << "step " << s;
        EXPECT_EQ(x.counters.lutReads, y.counters.lutReads) << "step " << s;
        evicted += x.evicted;
    }
    EXPECT_GT(evicted, 0u) << "the small mix should exercise eviction";
    for (std::size_t i = 0; i < a.round.requests.size(); ++i) {
        EXPECT_TRUE(a.round.requests[i].terminal);
        EXPECT_EQ(a.round.requests[i].state, b.round.requests[i].state);
        EXPECT_TRUE(bitIdentical(a.round.requests[i].hidden,
                                 b.round.requests[i].hidden));
    }
}

TEST(Gate, PassesOnAnEvictingRunAndMatchesTheReplay)
{
    figlut::serve::SteadyClock clock;
    const SmallRun run = runSmall(clock);
    GateReport report;
    checkTerminal(run.requests, run.round, report);
    const auto sample = gateSample(run.requests, run.round, 120, 11);
    ASSERT_GE(sample.size(), 3u);
    std::size_t tokens = 0;
    for (const std::size_t i : sample)
        tokens += run.requests[i].promptTokens + run.requests[i].outputTokens;
    EXPECT_LE(tokens, 120u);
    std::size_t evictedInSample = 0;
    for (const std::size_t i : sample)
        evictedInSample += run.round.requests[i].evictions > 0 ? 1 : 0;
    EXPECT_GT(evictedInSample, 0u) << "evicted requests are sampled first";
    verifyBatchOne(benchModel(), run.options, run.requests, run.round, sample,
                   report);
    checkReplay(replayAtZero(benchModel(), run.options, run.requests),
                run.round, report);
    EXPECT_TRUE(report.ok()) << report.problems.front();
    EXPECT_EQ(report.checked, sample.size());
    EXPECT_EQ(report.mismatches, 0u);
}

TEST(Gate, CatchesAPerturbedHiddenState)
{
    figlut::serve::SteadyClock clock;
    SmallRun run = runSmall(clock);
    const auto sample = gateSample(run.requests, run.round, 60, 5);
    ASSERT_GE(sample.size(), 2u);
    figlut::MatrixD &hidden = run.round.requests[sample[1]].hidden;
    std::uint64_t bits = 0;
    std::memcpy(&bits, hidden.data(), sizeof bits);
    bits ^= 1; // one ulp in the first element
    std::memcpy(hidden.data(), &bits, sizeof bits);

    GateReport report;
    checkTerminal(run.requests, run.round, report);
    verifyBatchOne(benchModel(), run.options, run.requests, run.round, sample,
                   report);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.mismatches, 1u);
    EXPECT_FALSE(report.failed[sample[0]]);
    EXPECT_TRUE(report.failed[sample[1]]);
}

TEST(Gate, CatchesAReplayMismatch)
{
    figlut::serve::SteadyClock clock;
    const SmallRun run = runSmall(clock);
    figlut::ReplayResult replay =
        replayAtZero(benchModel(), run.options, run.requests);
    replay.decodeTokens += 1;
    GateReport report;
    checkTerminal(run.requests, run.round, report);
    checkReplay(replay, run.round, report);
    EXPECT_FALSE(report.ok());
}

} // namespace
} // namespace perfbench
