/**
 * @file
 * Unit tests of serve::Scheduler driven directly, with no model and no
 * GEMMs: admission, queueing and rejection, the deadline sweep order,
 * eviction re-queueing, stalled prefills, unbounded budgets, and the
 * invariant checker. A tiny executor appends every planned column to
 * a 1-layer, hidden-1 arena, as the engine does.
 */

#include <gtest/gtest.h>

#include "serve/scheduler.h"

namespace figlut {
namespace serve {
namespace {

/** A scheduler over a 1-layer, hidden-1 arena. */
struct Harness
{
    explicit Harness(const SchedulerOptions &options,
                     std::size_t blockTokens = 16,
                     std::size_t budgetBlocks = 0)
        : arena(arenaOptions(blockTokens, budgetBlocks)),
          sched(arena, options, nullptr)
    {}

    static KvArena::Options
    arenaOptions(std::size_t blockTokens, std::size_t budgetBlocks)
    {
        KvArena::Options o;
        o.hidden = 1;
        o.layers = 1;
        o.blockTokens = blockTokens;
        o.budgetBytes = budgetBlocks * blockTokens * 2 * sizeof(double);
        return o;
    }

    RequestId
    submit(std::size_t maxTokens, std::size_t promptTokens = 0,
           double deadlineS = 0.0, double nowS = 0.0)
    {
        RequestOptions request;
        request.maxTokens = maxTokens;
        request.promptTokens = promptTokens;
        request.deadlineS = deadlineS;
        const Result<RequestId> id = sched.submit(request, nowS, nowS);
        EXPECT_TRUE(id.ok()) << id.status().toString();
        return id.ok() ? id.value() : 0;
    }

    /** One executed step: plan, append every planned column, complete,
     *  release retired sequences; the invariants must then hold. */
    StepPlan
    step(double nowS)
    {
        const StepPlan &plan = sched.plan(nowS);
        for (const PlannedWork &w : plan.work)
            for (std::size_t j = 0; j < w.columns; ++j)
                arena.appendToken(sched.find(w.id)->seq, 0);
        sched.complete(nowS);
        for (const RequestId id : plan.retiredIds)
            sched.releaseSequence(id);
        const Status invariants = sched.checkInvariants();
        EXPECT_TRUE(invariants.ok()) << invariants.toString();
        return plan;
    }

    std::vector<RequestId>
    queued() const
    {
        return {sched.queue().begin(), sched.queue().end()};
    }

    KvArena arena;
    Scheduler sched;
};

SchedulerOptions
bounds(std::size_t maxBatch, std::size_t maxQueue)
{
    SchedulerOptions options;
    options.maxBatch = maxBatch;
    options.maxQueue = maxQueue;
    return options;
}

std::vector<std::size_t>
columnsOf(const StepPlan &plan)
{
    std::vector<std::size_t> columns;
    for (const PlannedWork &w : plan.work)
        columns.push_back(w.columns);
    return columns;
}

TEST(Scheduler, AdmitsDirectlyThenQueuesThenRejects)
{
    Harness h(bounds(/*maxBatch=*/2, /*maxQueue=*/2));
    const RequestId a = h.submit(4), b = h.submit(4), c = h.submit(4);
    EXPECT_EQ(h.sched.find(a)->state, RequestState::Active);
    EXPECT_EQ(h.sched.find(b)->state, RequestState::Active);
    EXPECT_EQ(h.sched.find(c)->state, RequestState::Queued);
    EXPECT_EQ(h.sched.find(a)->admitSeq, 1u);
    EXPECT_EQ(h.sched.find(c)->admitSeq, 0u);

    // A cancellation frees a slot, but a new submit still waits behind
    // the queued one (FIFO), and the next submit finds the queue full.
    h.sched.cancel(a);
    EXPECT_EQ(h.sched.find(a)->state, RequestState::Cancelled);
    const RequestId d = h.submit(4);
    EXPECT_EQ(h.queued(), std::vector<RequestId>({c, d}));
    RequestOptions request;
    const Result<RequestId> rejected = h.sched.submit(request, 0.0, 0.0);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(h.sched.find(d + 1), nullptr); // a rejection takes no id
    EXPECT_TRUE(h.sched.checkInvariants().ok());

    // The next step admits c into the freed slot before working.
    const StepPlan plan = h.step(0.0);
    EXPECT_EQ(plan.admitted, 1u);
    EXPECT_EQ(h.sched.active(), std::vector<RequestId>({b, c}));
    EXPECT_EQ(h.queued(), std::vector<RequestId>({d}));
}

TEST(Scheduler, DeadlineSweepTakesActiveThenQueueInOrder)
{
    Harness h(bounds(/*maxBatch=*/2, /*maxQueue=*/4));
    // The queued request expires first (t = 1), the active one later
    // (t = 5): the sweep still lists the active list first.
    const RequestId active = h.submit(8, 0, /*deadlineS=*/5.0);
    const RequestId keep = h.submit(8);
    const RequestId queued = h.submit(8, 0, /*deadlineS=*/1.0);
    const RequestId late = h.submit(8, 0, /*deadlineS=*/50.0);
    h.step(0.0);

    const StepPlan plan = h.step(10.0);
    EXPECT_EQ(plan.deadlineIds, std::vector<RequestId>({active, queued}));
    EXPECT_EQ(h.sched.find(active)->state, RequestState::DeadlineExceeded);
    EXPECT_EQ(h.sched.find(queued)->state,
              RequestState::DeadlineExceeded);
    EXPECT_EQ(h.sched.find(active)->seq, KvArena::kInvalidSeq);
    // The freed slot admits the surviving queued request, which works
    // in the same step.
    EXPECT_EQ(plan.admitted, 1u);
    EXPECT_EQ(h.sched.active(), std::vector<RequestId>({keep, late}));
    EXPECT_DOUBLE_EQ(h.sched.find(late)->queueS, 10.0);
}

TEST(Scheduler, EvictionsRejoinTheQueueFrontInAdmissionOrder)
{
    // Four 1-token blocks; a's second prefill chunk needs two more,
    // so both equally idle decoders are evicted (newest first).
    SchedulerOptions options = bounds(/*maxBatch=*/3, /*maxQueue=*/4);
    options.prefillChunkTokens = 2;
    options.policy = DegradationPolicy::EvictLongestIdle;
    Harness h(options, /*blockTokens=*/1, /*budgetBlocks=*/4);
    const RequestId a = h.submit(4, /*promptTokens=*/4);
    const RequestId b = h.submit(4), c = h.submit(4), d = h.submit(4);
    EXPECT_EQ(columnsOf(h.step(0.0)), std::vector<std::size_t>({2, 1, 1}));
    EXPECT_EQ(h.arena.blocksInUse(), 4u);

    const StepPlan &plan = h.sched.plan(1.0);
    EXPECT_EQ(plan.evictedIds, std::vector<RequestId>({b, c}));
    EXPECT_TRUE(plan.shedIds.empty());
    // Re-queued ahead of never-admitted d, oldest admission first.
    EXPECT_EQ(h.queued(), std::vector<RequestId>({b, c, d}));
    EXPECT_EQ(h.sched.active(), std::vector<RequestId>({a}));
    for (const RequestId id : {b, c}) {
        const ScheduleEntry &e = *h.sched.find(id);
        EXPECT_EQ(e.state, RequestState::Queued);
        EXPECT_EQ(e.evictions, 1u);
        EXPECT_EQ(e.held(), 0u);
        EXPECT_EQ(e.seq, KvArena::kInvalidSeq);
    }
    ASSERT_EQ(plan.work.size(), 1u);
    EXPECT_EQ(plan.work[0].id, a);
    EXPECT_EQ(plan.work[0].held, 2u);
    EXPECT_TRUE(plan.work[0].prefill);
    h.arena.appendToken(h.sched.find(a)->seq, 0);
    h.arena.appendToken(h.sched.find(a)->seq, 0);
    h.sched.complete(1.0);
    // Completion refills the freed slots in queue order.
    EXPECT_EQ(plan.admitted, 2u);
    EXPECT_EQ(h.sched.active(), std::vector<RequestId>({a, b, c}));
    EXPECT_EQ(h.queued(), std::vector<RequestId>({d}));
    EXPECT_LT(h.sched.find(b)->admitSeq, h.sched.find(c)->admitSeq);
    EXPECT_TRUE(h.sched.checkInvariants().ok());
}

TEST(Scheduler, StalledPrefillGetsNoColumnsAndHoldsNoBlocks)
{
    SchedulerOptions options = bounds(/*maxBatch=*/3, /*maxQueue=*/0);
    options.prefillChunkTokens = 2;
    Harness h(options, /*blockTokens=*/2);
    const RequestId a = h.submit(2, /*promptTokens=*/3);
    const RequestId b = h.submit(2, /*promptTokens=*/3);
    const RequestId c = h.submit(2);

    // a takes the whole chunk budget; b stalls; decoder c rides free.
    const StepPlan first = h.step(0.0);
    ASSERT_EQ(first.work.size(), 2u);
    EXPECT_EQ(first.work[0].id, a);
    EXPECT_EQ(first.work[1].id, c);
    EXPECT_EQ(columnsOf(first), std::vector<std::size_t>({2, 1}));
    EXPECT_EQ(h.sched.active(), std::vector<RequestId>({a, b, c}));
    EXPECT_EQ(h.sched.find(b)->seq, KvArena::kInvalidSeq);
    EXPECT_FALSE(h.sched.find(b)->worked);

    // a finishes its prompt with 1 column; b starts with the other.
    const StepPlan second = h.step(1.0);
    EXPECT_EQ(columnsOf(second), std::vector<std::size_t>({1, 1, 1}));
    EXPECT_EQ(second.work[1].id, b);
    EXPECT_EQ(second.work[1].columns, 1u);
    EXPECT_DOUBLE_EQ(h.sched.find(b)->queueS, 1.0);
    EXPECT_EQ(second.retiredIds, std::vector<RequestId>({c}));

    // Third step: a decodes, b prefills its last 2 tokens.
    const StepPlan third = h.step(2.0);
    EXPECT_EQ(columnsOf(third), std::vector<std::size_t>({1, 2}));
    EXPECT_FALSE(third.work[0].prefill);
    EXPECT_TRUE(third.work[1].prefill);
    EXPECT_EQ(third.work[1].held, 1u);
    EXPECT_EQ(h.sched.find(b)->remainingPrompt(), 0u);
}

TEST(Scheduler, UnboundedBudgetNeverRetires)
{
    Harness h(bounds(/*maxBatch=*/1, /*maxQueue=*/1));
    const RequestId id = h.submit(/*maxTokens=*/0);
    for (int i = 0; i < 40; ++i) {
        const StepPlan plan = h.step(i);
        EXPECT_TRUE(plan.retiredIds.empty()) << i;
    }
    EXPECT_EQ(h.sched.find(id)->state, RequestState::Active);
    EXPECT_EQ(h.sched.find(id)->lifeTokens, 40u);
    EXPECT_EQ(h.sched.workSteps(), 40u);
    EXPECT_EQ(h.arena.tokens(h.sched.find(id)->seq), 40u);
}

TEST(Scheduler, PreviewMatchesTheUngovernedPlan)
{
    SchedulerOptions options = bounds(/*maxBatch=*/2, /*maxQueue=*/4);
    options.prefillChunkTokens = 3;
    Harness h(options);
    const RequestId a = h.submit(3, /*promptTokens=*/5);
    const RequestId b = h.submit(3);
    const RequestId c = h.submit(3, /*promptTokens=*/2);
    h.step(0.0);
    // A cancellation leaves a free slot that the next plan fills from
    // the queue; the preview must see that admission too.
    h.sched.releaseSequence(b);
    h.sched.cancel(b);
    const std::vector<PlannedWork> preview = h.sched.preview();
    const StepPlan &plan = h.sched.plan(1.0);
    EXPECT_EQ(plan.admitted, 1u);
    ASSERT_EQ(preview.size(), plan.work.size());
    for (std::size_t i = 0; i < preview.size(); ++i) {
        EXPECT_EQ(preview[i].id, plan.work[i].id);
        EXPECT_EQ(preview[i].columns, plan.work[i].columns);
        EXPECT_EQ(preview[i].held, plan.work[i].held);
        EXPECT_EQ(preview[i].prefill, plan.work[i].prefill);
    }
    EXPECT_EQ(plan.work[0].id, a);
    EXPECT_EQ(plan.work[1].id, c);
    // a's last 2 prompt tokens at positions 3, 4; c's first at 0.
    std::vector<std::size_t> contexts;
    appendColumnContexts(plan.work, contexts);
    EXPECT_EQ(contexts, std::vector<std::size_t>({4, 5, 1}));
}

TEST(Scheduler, CheckInvariantsCatchesAnOrphanSequence)
{
    Harness h(bounds(/*maxBatch=*/2, /*maxQueue=*/2));
    h.submit(4);
    h.step(0.0);
    ASSERT_TRUE(h.sched.checkInvariants().ok());
    // Blocks no request accounts for: a leak the checker must name.
    const KvArena::SeqId orphan = h.arena.createSequence();
    ASSERT_EQ(h.arena.reserveTokens(orphan, 1), KvArena::Reserve::Ok);
    const Status s = h.sched.checkInvariants();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("blocks"), std::string::npos);
}

} // namespace
} // namespace serve
} // namespace figlut
