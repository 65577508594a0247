/**
 * @file
 * The numerics-free continuous-batching scheduler shared by
 * serve::Engine and sim::replayTrace(), and the degradation policies
 * of its KV reservation pass.
 *
 * A Scheduler owns the FIFO wait queue, the active list (admission
 * order = fused batch column order) and every request's scheduling
 * fields, and runs against a KvArena: the engine passes its real
 * arena, the replay a reservation-only shadow arena of the same
 * geometry and FaultInjector. One step is
 *
 *     const StepPlan &plan = scheduler.plan(nowS);
 *     ... execute plan.work (engine) or price it (replay) ...
 *     scheduler.complete(nowS);
 *     for (RequestId id : plan.retiredIds)
 *         scheduler.releaseSequence(id);
 *
 * plan() sweeps deadlines (active first, then the queue, on the
 * FaultInjector-skewed clock), admits queued requests into free
 * slots, assigns every active request its columns, and runs the KV
 * reservation pass over the working requests:
 *
 *  - Work: a decoding request gets one column; prefilling requests
 *    share a per-step budget of prefillChunkTokens prompt tokens (0 =
 *    unbounded) in batch order, so a prefill late in the batch can
 *    get none and stalls this step (no columns, no reservation).
 *    Decode columns never consume the budget, so long prompts cannot
 *    starve live decoders.
 *  - Reservation: in batch order, each working request reserves its
 *    held + columns tokens; a NoCapacity (or an injected Fault,
 *    handled identically) picks a victim by the DegradationPolicy
 *    among the requests not yet reserved this step and retries.
 *    Reserved requests are never victims, so the pass terminates.
 *    Victims' sequences are released; evicted requests rejoin the
 *    queue front in admission order, shed ones end terminally.
 *
 * After plan() returns, every planned column is block-backed in the
 * arena. complete() advances the per-life counters, retires finished
 * token budgets and refills freed slots from the queue. Retired
 * requests keep their arena sequence until the caller releases it,
 * so the engine can materialize retained KV first.
 *
 * Two time bases: a request's baseS (its submit or arrival time) is
 * the base of its deadline and of its queue wait; the nowS passed to
 * submit/plan/complete stamps admissions and activity (the
 * EvictLongestIdle key).
 */

#ifndef FIGLUT_SERVE_SCHEDULER_H
#define FIGLUT_SERVE_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "runtime/kv_arena.h"
#include "serve/request.h"

namespace figlut {
namespace serve {

/** What to do with live traffic when the KV budget runs out. */
enum class DegradationPolicy
{
    /**
     * Shed the most recently admitted request among those still
     * un-reserved this step (possibly the requester itself) — drop it
     * terminally with ResourceExhausted. Protects old traffic.
     */
    ShedNewest,
    /**
     * Evict the longest-idle un-reserved request (excluding the
     * requester; newest admission breaks ties): release its KV and
     * re-queue it for a from-scratch restart. Sheds the requester
     * only when no victim remains. Trades recompute for admission.
     */
    EvictLongestIdle,
};

/** Stable name of a DegradationPolicy ("shed-newest", ...). */
const char *degradationPolicyName(DegradationPolicy policy);

/** The scheduling bounds (the EngineOptions/ReplayOptions subset). */
struct SchedulerOptions
{
    std::size_t maxBatch = 8;
    std::size_t maxQueue = 64;
    /** Per-step prefill token budget across the batch (0 = unbounded). */
    std::size_t prefillChunkTokens = 0;
    DegradationPolicy policy = DegradationPolicy::ShedNewest;
};

/** One request's scheduling state. */
struct ScheduleEntry
{
    /** Queued or Active while live; the terminal state after. An
     *  eviction leaves the entry Queued. */
    RequestState state = RequestState::Queued;
    /** Budget (maxTokens, 0 = unbounded), promptTokens and deadlineS
     *  are read; seed is kept for the executor. */
    RequestOptions request;
    /** Deadline and queue-wait base time. */
    double baseS = 0.0;
    /** Prompt tokens prefilled / tokens decoded in the current life
     *  (both reset by eviction). */
    std::size_t prefillDone = 0;
    std::size_t lifeTokens = 0;
    /** Admission counter value of the latest (re-)admission. */
    std::uint64_t admitSeq = 0;
    /** Step-start time of the last step that worked on the request
     *  (its admission time until then). */
    double lastActivityS = 0.0;
    /** Arena sequence (invalid while queued and once terminal). */
    KvArena::SeqId seq = KvArena::kInvalidSeq;
    /** resetKv() dropped the prompt for good. */
    bool promptDropped = false;
    /** Some step has worked on the request; queueS is then stamped. */
    bool worked = false;
    /** baseS to the start of the first step that worked on it. */
    double queueS = 0.0;
    /** Times the request was evicted and re-queued. */
    std::size_t evictions = 0;

    /** KV entries held (prefilled + decoded this life). */
    std::size_t held() const { return prefillDone + lifeTokens; }
    /** Prompt tokens still to prefill this life. */
    std::size_t remainingPrompt() const;
};

/** One working request of a step, in fused batch order. */
struct PlannedWork
{
    RequestId id = 0;
    /** Fused GEMM columns: a prefill chunk, or 1 decode column. */
    std::size_t columns = 0;
    /** KV entries held before the step (column j sees held + j + 1). */
    std::size_t held = 0;
    /** The columns are prompt columns (else one decode column). */
    bool prefill = false;
};

/** What one step does; filled by plan(), retiredIds by complete(). */
struct StepPlan
{
    /** The skewed clock the deadline sweep compared against. */
    double deadlineClockS = 0.0;
    /** Dropped by the deadline sweep (sequence already released). */
    std::vector<RequestId> deadlineIds;
    /** Shed terminally by the reservation pass. */
    std::vector<RequestId> shedIds;
    /** Evicted and re-queued, in batch order. */
    std::vector<RequestId> evictedIds;
    /** The working requests; empty = a governance-only step. */
    std::vector<PlannedWork> work;
    /** Requests admitted from the queue around the step. */
    std::size_t admitted = 0;
    /** Finished budgets; their sequences await releaseSequence(). */
    std::vector<RequestId> retiredIds;
};

/** Append each planned column's causal context length, in gather
 *  order: the contextLens decodeStepWorkload() prices the step with. */
void appendColumnContexts(const std::vector<PlannedWork> &work,
                          std::vector<std::size_t> &out);

/** Queue, active list and per-request schedule over one KvArena. */
class Scheduler
{
  public:
    /** arena and faults (clock skew only; may be null) must outlive
     *  the scheduler. */
    Scheduler(KvArena &arena, const SchedulerOptions &options,
              FaultInjector *faults);

    /** Admit directly when a slot is free and nothing waits, queue
     *  otherwise; ResourceExhausted when the queue is full. Ids are
     *  1, 2, ... in accepted-submit order. */
    Result<RequestId> submit(const RequestOptions &request, double baseS,
                             double nowS);

    /** Sweep, admit, assign work and reserve KV for one step. */
    const StepPlan &plan(double nowS);

    /** Finish the planned step: advance counters, retire budgets,
     *  refill from the queue. nowS is the step's start time. */
    void complete(double nowS);

    /** Release the request's arena sequence, if it holds one. */
    void releaseSequence(RequestId id);

    /** Take a live request out of the schedule as Cancelled (the
     *  caller releases its sequence). */
    void cancel(RequestId id);

    /** Drop a live request's KV and its prompt for good. */
    void resetKv(RequestId id);

    /** The next step's work as plan() would assign it before any
     *  sweep or reservation: the active requests plus the queued ones
     *  it would admit. */
    std::vector<PlannedWork> preview() const;

    /**
     * Check the schedule against itself and the arena: every id in
     * exactly one of queue, active or a terminal state; active <=
     * maxBatch and queue <= maxQueue; each sequence holding exactly
     * held() tokens; and arena.blocksInUse() equal to the blocks the
     * live sequences need. Valid between steps of an executor that
     * appends every planned column (the engine); a reservation-only
     * arena holds no tokens.
     */
    Status checkInvariants() const;

    /** The entry of id, or nullptr when id was never accepted. */
    const ScheduleEntry *find(RequestId id) const;
    const std::vector<RequestId> &active() const { return active_; }
    const std::deque<RequestId> &queue() const { return queue_; }
    /** Steps completed (the FaultInjector clock-skew index). */
    std::size_t workSteps() const { return workSteps_; }
    bool idle() const { return active_.empty() && queue_.empty(); }

  private:
    /** Reservation-pass outcome of one active slot. */
    enum class Fate
    {
        Idle,      ///< no columns this step (stalled prefill)
        Pending,   ///< working, not yet reserved
        Committed, ///< working, blocks reserved
        Evicted,
        Shed,
    };

    ScheduleEntry &at(RequestId id) { return entries_[id - 1]; }
    const ScheduleEntry &at(RequestId id) const
    {
        return entries_[id - 1];
    }
    std::size_t admitFromQueue(double nowS);
    void removeFromSchedule(RequestId id);
    void sweepDeadlines();
    /** Columns of each request of ids this step (the chunk budget). */
    void assignColumns(const std::vector<RequestId> &ids,
                       std::vector<std::size_t> &columns) const;
    /** The active slot that gives up its blocks so slot i can
     *  reserve; i itself or a later slot, or -1 for none. */
    std::size_t pickVictim(std::size_t i) const;
    void reserve(double nowS);

    KvArena &arena_;
    SchedulerOptions options_;
    FaultInjector *faults_ = nullptr;
    std::vector<ScheduleEntry> entries_; ///< index id - 1
    std::vector<RequestId> active_;
    std::deque<RequestId> queue_;
    std::uint64_t admitCounter_ = 0;
    std::size_t workSteps_ = 0;
    StepPlan plan_;
    /** Per-step scratch, reused so steady-state steps do not allocate. */
    std::vector<RequestId> scratchIds_;
    std::vector<std::size_t> columns_;
    std::vector<Fate> fate_;
};

} // namespace serve
} // namespace figlut

#endif // FIGLUT_SERVE_SCHEDULER_H
