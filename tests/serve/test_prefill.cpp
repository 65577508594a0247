/**
 * @file
 * Tests for computed prefill in the serving engine (serve/engine.h).
 *
 * The load-bearing invariant: prefill chunking is pure scheduling.
 * For any prefillChunkTokens — 1, a mid-prompt size, or past every
 * prompt — each request's final hidden state, full KV history, exact
 * counter share, and token totals are bit-identical to the
 * whole-prompt (chunk 0) run. On top of that: the P == 0 path is
 * untouched by the chunk knob, per-request counter shares reassemble
 * to the fused-step totals across mixed prefill/decode batches, TTFT
 * on a virtual clock strictly exceeds the queue wait and grows with
 * prompt length, and an eviction's re-admission wait lands in
 * restartSeconds (not queueSeconds).
 */

#include <gtest/gtest.h>

#include <vector>

#include "serve/engine.h"

namespace figlut {
namespace serve {
namespace {

OptConfig
tinyConfig(std::size_t hidden, std::size_t layers, std::size_t heads,
           std::size_t ffn)
{
    OptConfig cfg;
    cfg.name = "OPT-prefill-test";
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

std::size_t
blockBytesFor(const OptConfig &model, std::size_t blockTokens)
{
    return blockTokens * 2 * model.hidden * sizeof(double);
}

/** Everything a drained request leaves behind that chunking must not
 *  change. */
struct RequestOutcome
{
    MatrixD hidden;
    KvCache kv;
    LutGemmCounters counters;
    std::size_t prefillTokens = 0;
    std::size_t tokensDecoded = 0;
};

/** Run a fixed three-request mix (long prompt, short prompt, no
 *  prompt) to completion under one chunk size and capture each
 *  request's outcome. */
std::vector<RequestOutcome>
drainWithChunk(std::size_t chunkTokens)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 3;
    opts.prefillChunkTokens = chunkTokens;
    auto created = Engine::create(model, opts);
    EXPECT_TRUE(created.ok()) << created.status().toString();
    Engine &engine = *created.value();

    const std::size_t prompts[3] = {5, 3, 0};
    const std::size_t budgets[3] = {3, 2, 4};
    const std::uint64_t seeds[3] = {401, 402, 403};
    RequestId ids[3] = {};
    for (std::size_t i = 0; i < 3; ++i) {
        RequestOptions req;
        req.maxTokens = budgets[i];
        req.promptTokens = prompts[i];
        req.seed = seeds[i];
        auto id = engine.submit(req);
        EXPECT_TRUE(id.ok()) << id.status().toString();
        ids[i] = id.value();
    }

    std::size_t steps = 0;
    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0) {
        const auto stats = engine.step();
        EXPECT_TRUE(stats.ok()) << stats.status().toString();
        EXPECT_LT(++steps, 64u) << "engine failed to drain";
    }

    std::vector<RequestOutcome> outcomes;
    for (std::size_t i = 0; i < 3; ++i) {
        const auto snap = engine.poll(ids[i]);
        EXPECT_TRUE(snap.ok());
        EXPECT_EQ(snap.value().state, RequestState::Finished);
        RequestOutcome out;
        out.hidden = snap.value().hidden;
        out.kv = engine.kvHistory(ids[i]).value();
        out.counters = snap.value().stats.counters;
        out.prefillTokens = snap.value().stats.prefillTokens;
        out.tokensDecoded = snap.value().stats.tokensDecoded;
        outcomes.push_back(std::move(out));
    }
    return outcomes;
}

/**
 * The tentpole invariant: chunk size 1 (one prompt token per step),
 * a mid-prompt size, and a chunk past every prompt (= whole-prompt
 * in one step) all reproduce the chunk-0 run bit for bit — hidden
 * states, full KV histories (prompt entries included), exact counter
 * shares, and token totals.
 */
TEST(Prefill, ChunkingNeverChangesResults)
{
    const auto baseline = drainWithChunk(0);
    ASSERT_EQ(baseline.size(), 3u);
    EXPECT_EQ(baseline[0].prefillTokens, 5u);
    EXPECT_EQ(baseline[1].prefillTokens, 3u);
    EXPECT_EQ(baseline[2].prefillTokens, 0u);
    // Prompt K/V is real: the history holds prompt + decode entries.
    EXPECT_EQ(baseline[0].kv.length(), 5u + 3u);
    EXPECT_EQ(baseline[1].kv.length(), 3u + 2u);
    EXPECT_EQ(baseline[2].kv.length(), 4u);

    for (const std::size_t chunk : {1u, 2u, 16u, 64u}) {
        const auto chunked = drainWithChunk(chunk);
        ASSERT_EQ(chunked.size(), baseline.size());
        for (std::size_t i = 0; i < baseline.size(); ++i) {
            EXPECT_EQ(chunked[i].hidden, baseline[i].hidden)
                << "chunk " << chunk << " request " << i;
            EXPECT_EQ(chunked[i].kv, baseline[i].kv)
                << "chunk " << chunk << " request " << i;
            EXPECT_EQ(chunked[i].counters, baseline[i].counters)
                << "chunk " << chunk << " request " << i;
            EXPECT_EQ(chunked[i].prefillTokens,
                      baseline[i].prefillTokens);
            EXPECT_EQ(chunked[i].tokensDecoded,
                      baseline[i].tokensDecoded);
        }
    }
}

/**
 * A promptless request never touches the prefill path: with and
 * without a chunk budget it decodes the same trajectory from the same
 * seed (the pre-prefill RNG stream is preserved).
 */
TEST(Prefill, ZeroPromptIsUntouchedByTheChunkKnob)
{
    const auto model = tinyConfig(16, 1, 2, 32);
    std::vector<RequestOutcome> runs;
    for (const std::size_t chunk : {0u, 1u}) {
        EngineOptions opts = tinyEngineOptions();
        opts.prefillChunkTokens = chunk;
        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok());
        Engine &engine = *created.value();
        RequestOptions req;
        req.maxTokens = 3;
        req.seed = 77;
        const RequestId id = engine.submit(req).value();
        while (engine.liveRequests() > 0)
            ASSERT_TRUE(engine.step().ok());
        const auto snap = engine.poll(id).value();
        EXPECT_EQ(snap.stats.prefillTokens, 0u);
        RequestOutcome out;
        out.hidden = snap.hidden;
        out.kv = engine.kvHistory(id).value();
        out.counters = snap.stats.counters;
        runs.push_back(std::move(out));
    }
    EXPECT_EQ(runs[0].hidden, runs[1].hidden);
    EXPECT_EQ(runs[0].kv, runs[1].kv);
    EXPECT_EQ(runs[0].counters, runs[1].counters);
}

/**
 * Token-weighted counter accounting across mixed prefill/decode
 * batches: summing every request's counter share reproduces the sum
 * of every fused step's counters exactly, and the per-step prefill/
 * decode token splits add up to the per-request totals.
 */
TEST(Prefill, CounterSharesReassembleAcrossMixedBatches)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 3;
    opts.prefillChunkTokens = 2; // prompts straddle several steps
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    const std::size_t prompts[3] = {7, 4, 0};
    const std::size_t budgets[3] = {2, 3, 5};
    std::vector<RequestId> ids;
    for (std::size_t i = 0; i < 3; ++i) {
        RequestOptions req;
        req.maxTokens = budgets[i];
        req.promptTokens = prompts[i];
        req.seed = 900 + i;
        ids.push_back(engine.submit(req).value());
    }

    LutGemmCounters stepTotal;
    std::size_t stepPrefill = 0, stepDecode = 0;
    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0) {
        const auto stats = engine.step();
        ASSERT_TRUE(stats.ok()) << stats.status().toString();
        stepTotal += stats.value().counters;
        stepPrefill += stats.value().prefillTokens;
        stepDecode += stats.value().decodeTokens;
        // The fused batch width is the column-context count, and it
        // splits exactly into prefill and decode columns.
        EXPECT_EQ(stats.value().columnContexts.size(),
                  stats.value().prefillTokens +
                      stats.value().decodeTokens);
    }

    LutGemmCounters requestTotal;
    std::size_t requestPrefill = 0, requestDecode = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        const auto snap = engine.poll(ids[i]).value();
        EXPECT_EQ(snap.state, RequestState::Finished);
        requestTotal += snap.stats.counters;
        requestPrefill += snap.stats.prefillTokens;
        requestDecode += snap.stats.tokensDecoded;
        EXPECT_EQ(snap.stats.prefillTokens, prompts[i]);
        EXPECT_EQ(snap.stats.tokensDecoded, budgets[i]);
    }
    EXPECT_EQ(requestTotal, stepTotal);
    EXPECT_EQ(requestPrefill, stepPrefill);
    EXPECT_EQ(requestDecode, stepDecode);
}

/**
 * Honest TTFT on a virtual clock: a long prompt pays its prefill
 * steps between the queue-wait stamp and the first token, so
 * ttftSeconds strictly exceeds queueSeconds and grows with prompt
 * length. With chunk 8, P=32 takes 4 prefill steps and P=16 takes 2.
 */
TEST(Prefill, TtftExceedsQueueWaitAndGrowsWithPrompt)
{
    const auto model = tinyConfig(16, 1, 2, 32);
    double ttftByPrompt[2] = {0.0, 0.0};
    const std::size_t prompts[2] = {16, 32};
    for (std::size_t p = 0; p < 2; ++p) {
        VirtualClock clock;
        EngineOptions opts = tinyEngineOptions();
        opts.prefillChunkTokens = 8;
        opts.clock = &clock;
        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok());
        Engine &engine = *created.value();

        RequestOptions req;
        req.maxTokens = 1;
        req.promptTokens = prompts[p];
        req.seed = 55;
        const RequestId id = engine.submit(req).value();

        // One virtual second per step: queue wait is the 1s gap to
        // the first (prefill) step, TTFT spans every prefill step.
        std::size_t prefillSteps = 0;
        while (engine.liveRequests() > 0) {
            clock.advance(1.0);
            const auto stats = engine.step();
            ASSERT_TRUE(stats.ok());
            if (stats.value().prefillTokens > 0) {
                ++prefillSteps;
                EXPECT_EQ(stats.value().prefillTokens, 8u);
                EXPECT_EQ(stats.value().decodeTokens, 0u);
            }
        }
        EXPECT_EQ(prefillSteps, prompts[p] / 8);

        const auto snap = engine.poll(id).value();
        EXPECT_EQ(snap.state, RequestState::Finished);
        EXPECT_EQ(snap.stats.prefillTokens, prompts[p]);
        EXPECT_DOUBLE_EQ(snap.stats.queueSeconds, 1.0);
        // queue wait (1s) + one virtual second per prefill step (the
        // clock is static inside a step, so the decode step's end is
        // its start).
        EXPECT_DOUBLE_EQ(snap.stats.ttftSeconds,
                         1.0 + static_cast<double>(prefillSteps));
        EXPECT_GT(snap.stats.ttftSeconds, snap.stats.queueSeconds);
        ttftByPrompt[p] = snap.stats.ttftSeconds;
    }
    EXPECT_GT(ttftByPrompt[1], ttftByPrompt[0]);
}

/**
 * Post-eviction waits are their own metric: the gap from the evicting
 * step to the restarted life's first work step lands in
 * restartSeconds, while queueSeconds keeps the pre-first-work wait
 * only (here 0 — the victim worked immediately after submit).
 */
TEST(Prefill, EvictionWaitLandsInRestartSecondsNotQueueSeconds)
{
    const auto model = tinyConfig(32, 1, 2, 64);
    VirtualClock clock;
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 3;
    opts.kvBlockTokens = 1;
    // Four one-token blocks: three decoders fit for one step, then
    // the second token of the first two exhausts the budget and the
    // only pending victim — the third request — is evicted.
    opts.kvBudgetBytes = 4 * blockBytesFor(model, 1);
    opts.policy = DegradationPolicy::EvictLongestIdle;
    opts.clock = &clock;
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    Engine &engine = *created.value();

    RequestOptions req;
    req.maxTokens = 2;
    req.seed = 61;
    const RequestId a = engine.submit(req).value();
    req.seed = 62;
    const RequestId b = engine.submit(req).value();
    req.maxTokens = 4;
    req.seed = 63;
    const RequestId c = engine.submit(req).value();

    // Step 1 at t=0: all three decode their first token (3 blocks).
    auto s1 = engine.step();
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(s1.value().decodedIds.size(), 3u);

    // Step 2 at t=5: a takes the last free block, b's reservation
    // fails, and the only pending item — c — is the victim. a and b
    // retire; c re-queues and is re-admitted into a freed slot.
    clock.advance(5.0);
    auto s2 = engine.step();
    ASSERT_TRUE(s2.ok());
    EXPECT_EQ(s2.value().evictedIds, std::vector<RequestId>({c}));
    EXPECT_EQ(s2.value().decodedIds, std::vector<RequestId>({a, b}));
    EXPECT_EQ(s2.value().retired, 2u);

    // Step 3 at t=8: c's second life decodes; the 3s re-admission
    // wait is stamped into restartSeconds.
    clock.advance(3.0);
    ASSERT_TRUE(engine.step().ok());
    {
        const auto snap = engine.poll(c).value();
        EXPECT_EQ(snap.stats.preemptions, 1u);
        EXPECT_DOUBLE_EQ(snap.stats.restartSeconds, 3.0);
        EXPECT_DOUBLE_EQ(snap.stats.queueSeconds, 0.0);
    }

    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0)
        ASSERT_TRUE(engine.step().ok());
    const auto snap = engine.poll(c).value();
    EXPECT_EQ(snap.state, RequestState::Finished);
    EXPECT_EQ(snap.stats.tokensDecoded, 5u); // both lives
    EXPECT_DOUBLE_EQ(snap.stats.restartSeconds, 3.0);
    EXPECT_DOUBLE_EQ(snap.stats.queueSeconds, 0.0);
    const auto never = engine.poll(a).value();
    EXPECT_DOUBLE_EQ(never.stats.restartSeconds, 0.0);
}

} // namespace
} // namespace serve
} // namespace figlut
