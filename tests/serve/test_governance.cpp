/**
 * @file
 * Tests for memory-governed serving (serve/engine.h + scheduler.h):
 * per-request deadlines on a virtual clock (including injected clock
 * skew), KV-budget admission with the ShedNewest and EvictLongestIdle
 * policies, and the survival contract — every request that does not
 * complete carries a definite terminal Status, and an evicted request
 * restarts from scratch to a bit-identical result.
 */

#include <gtest/gtest.h>

#include "serve/engine.h"

namespace figlut {
namespace serve {
namespace {

OptConfig
tinyConfig(std::size_t hidden, std::size_t layers, std::size_t heads,
           std::size_t ffn)
{
    OptConfig cfg;
    cfg.name = "OPT-governance-test";
    cfg.hidden = hidden;
    cfg.layers = layers;
    cfg.heads = heads;
    cfg.ffn = ffn;
    return cfg;
}

/** Every step leaves the schedule consistent with the arena. */
void
expectInvariants(const Engine &engine)
{
    const Status s = engine.checkInvariants();
    EXPECT_TRUE(s.ok()) << s.toString();
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

TEST(Governance, ConfigKnobsAreValidated)
{
    const auto model = tinyConfig(8, 2, 2, 16);

    EngineOptions zeroBlock = tinyEngineOptions();
    zeroBlock.kvBlockTokens = 0;
    const auto r1 = Engine::create(model, zeroBlock);
    ASSERT_FALSE(r1.ok());
    EXPECT_EQ(r1.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(r1.status().message().find("kvBlockTokens"),
              std::string::npos);

    // A budget that cannot hold one block per layer can never decode.
    EngineOptions tiny = tinyEngineOptions();
    tiny.kvBlockTokens = 4;
    tiny.kvBudgetBytes = blockBytesFor(model, 4) * model.layers - 1;
    const auto r2 = Engine::create(model, tiny);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(r2.status().message().find("kvBudgetBytes"),
              std::string::npos);

    // A negative deadline is a client bug, rejected at submit.
    EngineOptions ok = tinyEngineOptions();
    auto engine = Engine::create(model, ok);
    ASSERT_TRUE(engine.ok());
    RequestOptions bad;
    bad.deadlineS = -1.0;
    EXPECT_EQ(engine.value()->submit(bad).status().code(),
              StatusCode::InvalidArgument);
}

TEST(Governance, DeadlineExpiryRetiresActiveAndQueued)
{
    const auto model = tinyConfig(8, 1, 2, 16);
    VirtualClock clock;
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 1; // the second request waits in the queue
    opts.maxQueue = 4;
    opts.clock = &clock;
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    RequestOptions req;
    req.maxTokens = 16;
    req.deadlineS = 1.0;
    req.seed = 11;
    const RequestId active = engine.submit(req).value();
    req.seed = 22;
    const RequestId queued = engine.submit(req).value();

    // Inside the deadline both survive; the active one decodes.
    auto s1 = engine.step();
    expectInvariants(engine);
    ASSERT_TRUE(s1.ok());
    EXPECT_TRUE(s1.value().deadlineIds.empty());
    EXPECT_EQ(s1.value().decodedIds,
              std::vector<RequestId>({active}));

    // Past the deadline the sweep retires the active column AND the
    // queued request in one step that then decodes nothing.
    clock.advance(2.0);
    auto s2 = engine.step();
    expectInvariants(engine);
    ASSERT_TRUE(s2.ok());
    EXPECT_EQ(s2.value().deadlineIds,
              std::vector<RequestId>({active, queued}));
    EXPECT_TRUE(s2.value().decodedIds.empty());
    EXPECT_EQ(engine.liveRequests(), 0u);
    EXPECT_EQ(engine.queuedRequests(), 0u);

    for (const RequestId id : {active, queued}) {
        const auto snap = engine.poll(id);
        ASSERT_TRUE(snap.ok());
        EXPECT_EQ(snap.value().state, RequestState::DeadlineExceeded);
        EXPECT_EQ(snap.value().terminal.code(),
                  StatusCode::DeadlineExceeded);
        EXPECT_FALSE(snap.value().terminal.message().empty());
        // Expired KV is dropped, not retained.
        EXPECT_EQ(snap.value().kvLength, 0u);
    }
    EXPECT_EQ(engine.arena().blocksInUse(), 0u);

    // With nothing left, stepping is a precondition failure again.
    EXPECT_EQ(engine.step().status().code(),
              StatusCode::FailedPrecondition);
}

TEST(Governance, InjectedClockSkewFiresDeadlinesEarly)
{
    const auto model = tinyConfig(8, 1, 2, 16);
    VirtualClock clock;
    // No allocation faults; 5s of skew on odd-numbered steps.
    CountingFaultInjector faults(/*failEvery=*/0, /*skewS=*/5.0);
    EngineOptions opts = tinyEngineOptions();
    opts.clock = &clock;
    opts.faults = &faults;
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    RequestOptions req;
    req.maxTokens = 16;
    req.deadlineS = 2.0;
    req.seed = 7;
    const RequestId id = engine.submit(req).value();

    // Step 0 sees no skew: virtual time 0 is inside the deadline.
    auto s1 = engine.step();
    expectInvariants(engine);
    ASSERT_TRUE(s1.ok());
    EXPECT_TRUE(s1.value().deadlineIds.empty());

    // Step 1 sweeps at now + 5s of skew: the 2s deadline fires even
    // though real (virtual) time never moved.
    auto s2 = engine.step();
    expectInvariants(engine);
    ASSERT_TRUE(s2.ok());
    EXPECT_EQ(s2.value().deadlineIds, std::vector<RequestId>({id}));
    EXPECT_EQ(engine.poll(id).value().state,
              RequestState::DeadlineExceeded);
}

TEST(Governance, ShedNewestDropsTheNewestWithAStatus)
{
    const auto model = tinyConfig(8, 1, 2, 16);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 2;
    opts.kvBlockTokens = 2;
    // Two blocks total: both columns fit until one needs a second
    // block, at which point the newest admission is shed for good.
    opts.kvBudgetBytes = 2 * blockBytesFor(model, 2);
    opts.policy = DegradationPolicy::ShedNewest;
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    RequestOptions req;
    req.maxTokens = 4;
    req.seed = 1;
    const RequestId older = engine.submit(req).value();
    req.seed = 2;
    const RequestId newer = engine.submit(req).value();

    // Steps 1-2: one block each, both decode.
    for (int i = 0; i < 2; ++i) {
        auto s = engine.step();
        expectInvariants(engine);
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(s.value().decodedIds.size(), 2u);
        EXPECT_TRUE(s.value().shedIds.empty());
        EXPECT_LE(s.value().kvBlocksInUse, 2u);
    }
    // Step 3: the older column needs a second block; the budget is
    // full, so the newest request is the sacrifice — terminally.
    auto s3 = engine.step();
    expectInvariants(engine);
    ASSERT_TRUE(s3.ok());
    EXPECT_EQ(s3.value().shedIds, std::vector<RequestId>({newer}));
    EXPECT_EQ(s3.value().decodedIds, std::vector<RequestId>({older}));

    const auto shedSnap = engine.poll(newer);
    ASSERT_TRUE(shedSnap.ok());
    EXPECT_EQ(shedSnap.value().state, RequestState::Shed);
    EXPECT_EQ(shedSnap.value().terminal.code(),
              StatusCode::ResourceExhausted);
    EXPECT_FALSE(shedSnap.value().terminal.message().empty());

    // The survivor decodes to its full budget under the same cap.
    while (engine.liveRequests() > 0) {
        ASSERT_TRUE(engine.step().ok());
        expectInvariants(engine);
    }
    const auto okSnap = engine.poll(older);
    ASSERT_TRUE(okSnap.ok());
    EXPECT_EQ(okSnap.value().state, RequestState::Finished);
    EXPECT_TRUE(okSnap.value().terminal.ok());
    EXPECT_EQ(okSnap.value().stats.tokensDecoded, 4u);
    EXPECT_LE(engine.arena().peakBytes(), opts.kvBudgetBytes);
}

/**
 * The eviction round-trip: under EvictLongestIdle the victim loses its
 * blocks mid-flight, rejoins the queue, restarts from scratch, and
 * still finishes with hidden state and KV history bit-identical to an
 * unconstrained run — preemption is a latency event, never a numerics
 * event.
 */
TEST(Governance, EvictionRestartIsBitIdentical)
{
    const auto model = tinyConfig(8, 1, 2, 16);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 2;
    opts.kvBlockTokens = 2;
    opts.kvBudgetBytes = 2 * blockBytesFor(model, 2);
    opts.policy = DegradationPolicy::EvictLongestIdle;
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    RequestOptions req;
    req.maxTokens = 3;
    req.seed = 31;
    const RequestId a = engine.submit(req).value();
    req.seed = 32;
    const RequestId b = engine.submit(req).value();

    // Steps 1-2: both columns fit in one block each.
    for (int i = 0; i < 2; ++i) {
        auto s = engine.step();
        expectInvariants(engine);
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(s.value().decodedIds.size(), 2u);
    }
    // Step 3: a needs a second block; b (the other, equally idle but
    // newer column) is evicted, a finishes, and the freed slot
    // re-admits b in the same step.
    auto s3 = engine.step();
    expectInvariants(engine);
    ASSERT_TRUE(s3.ok());
    EXPECT_EQ(s3.value().evictedIds, std::vector<RequestId>({b}));
    EXPECT_EQ(s3.value().decodedIds, std::vector<RequestId>({a}));
    EXPECT_EQ(s3.value().retired, 1u);
    EXPECT_EQ(s3.value().admitted, 1u);

    // b is live again, restarted from zero KV.
    EXPECT_EQ(engine.poll(b).value().state, RequestState::Active);
    EXPECT_EQ(engine.poll(b).value().kvLength, 0u);

    // Steps 4-6: b's second life decodes its full budget alone.
    while (engine.liveRequests() > 0) {
        ASSERT_TRUE(engine.step().ok());
        expectInvariants(engine);
    }

    const auto snapA = engine.poll(a).value();
    const auto snapB = engine.poll(b).value();
    EXPECT_EQ(snapA.state, RequestState::Finished);
    EXPECT_EQ(snapB.state, RequestState::Finished);
    EXPECT_TRUE(snapB.terminal.ok());
    EXPECT_EQ(snapA.stats.preemptions, 0u);
    EXPECT_EQ(snapB.stats.preemptions, 1u);
    // tokensDecoded counts both lives; the KV keeps only the last.
    EXPECT_EQ(snapB.stats.tokensDecoded, 5u);
    EXPECT_EQ(snapB.kvLength, 3u);

    // Reference: the same two requests on an unconstrained engine.
    EngineOptions roomy = tinyEngineOptions();
    roomy.maxBatch = 2;
    auto reference = Engine::create(model, roomy);
    ASSERT_TRUE(reference.ok());
    Engine &ref = *reference.value();
    req.seed = 31;
    const RequestId refA = ref.submit(req).value();
    req.seed = 32;
    const RequestId refB = ref.submit(req).value();
    while (ref.liveRequests() > 0) {
        ASSERT_TRUE(ref.step().ok());
        expectInvariants(ref);
    }

    EXPECT_EQ(snapA.hidden, ref.poll(refA).value().hidden);
    EXPECT_EQ(snapB.hidden, ref.poll(refB).value().hidden);
    EXPECT_EQ(engine.kvHistory(a).value(),
              ref.kvHistory(refA).value());
    EXPECT_EQ(engine.kvHistory(b).value(),
              ref.kvHistory(refB).value());
}

/**
 * The survival contract under combined pressure: byte budget, injected
 * allocation faults, deadlines, and a client cancellation, all at
 * once. The engine must drain without an abort, and every request must
 * end in a terminal state whose Status code matches it exactly.
 */
TEST(Governance, EveryRequestEndsWithADefiniteStatus)
{
    const auto model = tinyConfig(8, 1, 2, 16);
    VirtualClock clock;
    CountingFaultInjector faults(/*failEvery=*/5, /*skewS=*/0.0);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 3;
    opts.maxQueue = 8;
    opts.kvBlockTokens = 2;
    opts.kvBudgetBytes = 4 * blockBytesFor(model, 2);
    opts.policy = DegradationPolicy::ShedNewest;
    opts.clock = &clock;
    opts.faults = &faults;
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    std::vector<RequestId> ids;
    for (std::size_t i = 0; i < 8; ++i) {
        RequestOptions req;
        req.maxTokens = 2 + i % 4;
        req.promptTokens = i % 3;
        req.seed = 500 + i;
        // Every third request runs against a tight deadline.
        req.deadlineS = i % 3 == 0 ? 0.05 : 0.0;
        ids.push_back(engine.submit(req).value());
    }
    ASSERT_TRUE(engine.cancel(ids[1]).ok());

    std::size_t steps = 0;
    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0) {
        ASSERT_TRUE(engine.step().ok());
        expectInvariants(engine);
        clock.advance(0.01);
        ASSERT_LT(++steps, 200u) << "engine failed to drain";
    }

    for (const RequestId id : ids) {
        const auto snap = engine.poll(id);
        ASSERT_TRUE(snap.ok());
        const RequestSnapshot &s = snap.value();
        ASSERT_TRUE(requestStateTerminal(s.state))
            << "request " << id << " left in state "
            << requestStateName(s.state);
        switch (s.state) {
          case RequestState::Finished:
            EXPECT_TRUE(s.terminal.ok());
            EXPECT_GT(s.stats.tokensDecoded, 0u);
            break;
          case RequestState::Shed:
            EXPECT_EQ(s.terminal.code(),
                      StatusCode::ResourceExhausted);
            break;
          case RequestState::DeadlineExceeded:
            EXPECT_EQ(s.terminal.code(), StatusCode::DeadlineExceeded);
            break;
          case RequestState::Cancelled:
            EXPECT_EQ(s.terminal.code(), StatusCode::Cancelled);
            break;
          default:
            FAIL() << "unexpected terminal state "
                   << requestStateName(s.state);
        }
    }
    // The budget held throughout, and retiring everything returned
    // every block to the arena.
    EXPECT_LE(engine.arena().peakBytes(), opts.kvBudgetBytes);
    EXPECT_EQ(engine.arena().blocksInUse(), 0u);
}

} // namespace
} // namespace serve
} // namespace figlut
