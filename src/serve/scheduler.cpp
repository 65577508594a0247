#include "serve/scheduler.h"

#include <algorithm>

namespace figlut {
namespace serve {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

} // namespace

const char *
degradationPolicyName(DegradationPolicy policy)
{
    switch (policy) {
      case DegradationPolicy::ShedNewest: return "shed-newest";
      case DegradationPolicy::EvictLongestIdle: return "evict-idle";
    }
    return "unknown";
}

std::size_t
ScheduleEntry::remainingPrompt() const
{
    const std::size_t prompt = promptDropped ? 0 : request.promptTokens;
    return prompt > prefillDone ? prompt - prefillDone : 0;
}

void
appendColumnContexts(const std::vector<PlannedWork> &work,
                     std::vector<std::size_t> &out)
{
    // Each column is appended before it attends, so the one at
    // sequence position p sees p + 1 entries.
    for (const PlannedWork &w : work)
        for (std::size_t j = 0; j < w.columns; ++j)
            out.push_back(w.held + j + 1);
}

Scheduler::Scheduler(KvArena &arena, const SchedulerOptions &options,
                     FaultInjector *faults)
    : arena_(arena), options_(options), faults_(faults)
{}

const ScheduleEntry *
Scheduler::find(RequestId id) const
{
    return id >= 1 && id <= entries_.size() ? &entries_[id - 1] : nullptr;
}

Result<RequestId>
Scheduler::submit(const RequestOptions &request, double baseS,
                  double nowS)
{
    // A new request only bypasses the queue when the queue is empty —
    // earlier submits waiting for a slot keep their FIFO position even
    // if a cancellation just freed one (the next step admits them).
    const bool direct =
        active_.size() < options_.maxBatch && queue_.empty();
    if (!direct && queue_.size() >= options_.maxQueue)
        return Status::resourceExhausted(
            "engine at capacity: ", active_.size(), " live (maxBatch ",
            options_.maxBatch, ") and ", queue_.size(),
            " queued (maxQueue ", options_.maxQueue,
            "); retry after step() retires traffic");
    ScheduleEntry entry;
    entry.request = request;
    entry.baseS = baseS;
    entries_.push_back(entry);
    const RequestId id = entries_.size();
    if (direct) {
        ScheduleEntry &e = at(id);
        e.state = RequestState::Active;
        e.admitSeq = ++admitCounter_;
        e.lastActivityS = nowS;
        active_.push_back(id);
    } else {
        queue_.push_back(id);
    }
    return id;
}

std::size_t
Scheduler::admitFromQueue(double nowS)
{
    std::size_t admitted = 0;
    while (active_.size() < options_.maxBatch && !queue_.empty()) {
        const RequestId id = queue_.front();
        queue_.pop_front();
        ScheduleEntry &e = at(id);
        e.state = RequestState::Active;
        e.admitSeq = ++admitCounter_;
        e.lastActivityS = nowS;
        active_.push_back(id);
        ++admitted;
    }
    return admitted;
}

void
Scheduler::removeFromSchedule(RequestId id)
{
    active_.erase(std::remove(active_.begin(), active_.end(), id),
                  active_.end());
    const auto it = std::find(queue_.begin(), queue_.end(), id);
    if (it != queue_.end())
        queue_.erase(it);
}

void
Scheduler::releaseSequence(RequestId id)
{
    ScheduleEntry &e = at(id);
    if (e.seq == KvArena::kInvalidSeq)
        return;
    arena_.releaseSequence(e.seq);
    e.seq = KvArena::kInvalidSeq;
}

void
Scheduler::sweepDeadlines()
{
    // Active columns first, then the queue, both in order.
    scratchIds_.assign(active_.begin(), active_.end());
    scratchIds_.insert(scratchIds_.end(), queue_.begin(), queue_.end());
    for (const RequestId id : scratchIds_) {
        ScheduleEntry &e = at(id);
        if (e.request.deadlineS <= 0.0 ||
            plan_.deadlineClockS <= e.baseS + e.request.deadlineS)
            continue;
        releaseSequence(id);
        removeFromSchedule(id);
        e.state = RequestState::DeadlineExceeded;
        plan_.deadlineIds.push_back(id);
    }
}

void
Scheduler::assignColumns(const std::vector<RequestId> &ids,
                         std::vector<std::size_t> &columns) const
{
    std::size_t budget = options_.prefillChunkTokens == 0
                             ? kNone
                             : options_.prefillChunkTokens;
    columns.clear();
    for (const RequestId id : ids) {
        const std::size_t remaining = at(id).remainingPrompt();
        if (remaining == 0) {
            columns.push_back(1); // decode columns ride along, budget-free
            continue;
        }
        const std::size_t chunk = std::min(remaining, budget);
        columns.push_back(chunk);
        budget -= chunk;
    }
}

std::size_t
Scheduler::pickVictim(std::size_t i) const
{
    // Only pending slots are candidates: earlier slots already
    // resolved (committed blocks are never clawed back), so a victim
    // is always i itself or a later slot.
    const bool shedNewest =
        options_.policy == DegradationPolicy::ShedNewest;
    std::size_t victim = kNone;
    for (std::size_t j = 0; j < active_.size(); ++j) {
        // ShedNewest: the most recently admitted, the requester
        // included. EvictLongestIdle: the longest idle *other*
        // request, newest admission breaking ties so the re-queue
        // order stays deterministic.
        if (fate_[j] != Fate::Pending || (!shedNewest && j == i))
            continue;
        if (victim == kNone) {
            victim = j;
            continue;
        }
        const ScheduleEntry &c = at(active_[j]);
        const ScheduleEntry &v = at(active_[victim]);
        const bool newer = c.admitSeq > v.admitSeq;
        if (shedNewest ? newer
                       : c.lastActivityS < v.lastActivityS ||
                             (c.lastActivityS == v.lastActivityS && newer))
            victim = j;
    }
    return victim;
}

void
Scheduler::reserve(double nowS)
{
    // A stalled prefill needs no new tokens and keeps its held blocks
    // — it is neither a requester nor a victim this step.
    assignColumns(active_, columns_);
    fate_.assign(active_.size(), Fate::Idle);
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (columns_[i] == 0)
            continue;
        ScheduleEntry &e = at(active_[i]);
        if (e.seq == KvArena::kInvalidSeq)
            e.seq = arena_.createSequence();
        fate_[i] = Fate::Pending;
    }
    for (std::size_t i = 0; i < active_.size(); ++i) {
        const ScheduleEntry &e = at(active_[i]);
        while (fate_[i] == Fate::Pending) {
            if (arena_.reserveTokens(e.seq, e.held() + columns_[i]) ==
                KvArena::Reserve::Ok) {
                fate_[i] = Fate::Committed;
                break;
            }
            // No victim left, or the requester is the sacrifice: shed
            // it. ShedNewest victims are dropped for good,
            // EvictLongestIdle victims restart from the queue.
            const std::size_t victim = pickVictim(i);
            const std::size_t loser = victim == kNone ? i : victim;
            const bool evict =
                loser != i &&
                options_.policy == DegradationPolicy::EvictLongestIdle;
            arena_.releaseSequence(at(active_[loser]).seq);
            fate_[loser] = evict ? Fate::Evicted : Fate::Shed;
        }
    }

    // Apply the fates in batch order. Survivors keep their order
    // (stalled prefills stay active with no work); the first step that
    // works on a request stamps its queue wait.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        const RequestId id = active_[i];
        ScheduleEntry &e = at(id);
        switch (fate_[i]) {
          case Fate::Evicted:
            e.seq = KvArena::kInvalidSeq;
            e.state = RequestState::Queued;
            e.prefillDone = 0;
            e.lifeTokens = 0;
            e.evictions += 1;
            plan_.evictedIds.push_back(id);
            continue;
          case Fate::Shed:
            e.seq = KvArena::kInvalidSeq;
            e.state = RequestState::Shed;
            plan_.shedIds.push_back(id);
            continue;
          case Fate::Committed:
            if (!e.worked) {
                e.queueS = nowS - e.baseS;
                e.worked = true;
            }
            plan_.work.push_back(PlannedWork{id, columns_[i], e.held(),
                                             e.remainingPrompt() > 0});
            break;
          case Fate::Idle:
          case Fate::Pending: // unreachable: the pass resolves all
            break;
        }
        active_[kept++] = id;
    }
    active_.resize(kept);

    // Evicted requests rejoin the queue FRONT in admission order,
    // ahead of never-admitted traffic (they already waited once).
    scratchIds_.assign(plan_.evictedIds.begin(), plan_.evictedIds.end());
    std::sort(scratchIds_.begin(), scratchIds_.end(),
              [this](RequestId a, RequestId b) {
                  return at(a).admitSeq > at(b).admitSeq;
              });
    for (const RequestId id : scratchIds_)
        queue_.push_front(id);
}

const StepPlan &
Scheduler::plan(double nowS)
{
    plan_.deadlineIds.clear();
    plan_.shedIds.clear();
    plan_.evictedIds.clear();
    plan_.work.clear();
    plan_.retiredIds.clear();
    // Injected skew shifts only the deadline clock: deadlines can fire
    // early or late while every other stamp stays on nowS.
    plan_.deadlineClockS =
        nowS + (faults_ != nullptr ? faults_->clockSkewS(workSteps_) : 0.0);
    sweepDeadlines();
    plan_.admitted = admitFromQueue(nowS);
    if (active_.empty())
        return plan_;
    reserve(nowS);
    // Governance dropped every working column: refill now; the next
    // step re-assigns the chunk budget.
    if (plan_.work.empty())
        plan_.admitted += admitFromQueue(nowS);
    return plan_;
}

void
Scheduler::complete(double nowS)
{
    for (const PlannedWork &w : plan_.work) {
        ScheduleEntry &e = at(w.id);
        e.lastActivityS = nowS;
        if (w.prefill) {
            e.prefillDone += w.columns;
            continue;
        }
        e.lifeTokens += 1;
        if (e.request.maxTokens > 0 && e.lifeTokens >= e.request.maxTokens) {
            e.state = RequestState::Finished;
            plan_.retiredIds.push_back(w.id);
        }
    }
    for (const RequestId id : plan_.retiredIds)
        removeFromSchedule(id);
    // Refilling now keeps the batch full between steps and drains FIFO
    // traffic as early as possible.
    plan_.admitted += admitFromQueue(nowS);
    ++workSteps_;
}

void
Scheduler::cancel(RequestId id)
{
    removeFromSchedule(id);
    at(id).state = RequestState::Cancelled;
}

void
Scheduler::resetKv(RequestId id)
{
    ScheduleEntry &e = at(id);
    if (e.seq != KvArena::kInvalidSeq)
        arena_.resetSequence(e.seq);
    // A later life's prefill must not resurrect the prompt, and a
    // half-done prefill stops here.
    e.promptDropped = true;
    e.prefillDone = 0;
    e.lifeTokens = 0;
}

std::vector<PlannedWork>
Scheduler::preview() const
{
    std::vector<RequestId> next(active_.begin(), active_.end());
    for (const RequestId id : queue_) {
        if (next.size() >= options_.maxBatch)
            break;
        next.push_back(id);
    }
    std::vector<std::size_t> columns;
    assignColumns(next, columns);
    std::vector<PlannedWork> work;
    for (std::size_t i = 0; i < next.size(); ++i) {
        const ScheduleEntry &e = at(next[i]);
        if (columns[i] > 0)
            work.push_back(PlannedWork{next[i], columns[i], e.held(),
                                       e.remainingPrompt() > 0});
    }
    return work;
}

Status
Scheduler::checkInvariants() const
{
    if (active_.size() > options_.maxBatch)
        return Status::failedPrecondition(
            "scheduler: ", active_.size(), " active > maxBatch ",
            options_.maxBatch);
    if (queue_.size() > options_.maxQueue)
        return Status::failedPrecondition(
            "scheduler: ", queue_.size(), " queued > maxQueue ",
            options_.maxQueue);
    // Count each id's appearances in the active list and the queue.
    std::vector<std::size_t> inActive(entries_.size(), 0);
    std::vector<std::size_t> inQueue(entries_.size(), 0);
    const auto count = [this](const auto &ids, std::vector<std::size_t> &n) {
        for (const RequestId id : ids) {
            if (find(id) == nullptr)
                return false;
            ++n[id - 1];
        }
        return true;
    };
    if (!count(active_, inActive) || !count(queue_, inQueue))
        return Status::failedPrecondition(
            "scheduler: an unknown id is active or queued");
    const std::size_t layers = arena_.layers();
    const std::size_t blockTokens = arena_.blockTokens();
    std::size_t blocks = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const RequestId id = i + 1;
        const ScheduleEntry &e = entries_[i];
        const bool active = e.state == RequestState::Active;
        const bool queued = e.state == RequestState::Queued;
        if (inActive[i] != (active ? 1u : 0u) ||
            inQueue[i] != (queued ? 1u : 0u) ||
            !(active || queued || requestStateTerminal(e.state)))
            return Status::failedPrecondition(
                "scheduler: request ", id, " (",
                requestStateName(e.state), ") appears ", inActive[i],
                "x active and ", inQueue[i], "x queued");
        if (e.seq == KvArena::kInvalidSeq)
            continue;
        if (!active || !arena_.hasSequence(e.seq))
            return Status::failedPrecondition(
                "scheduler: ", requestStateName(e.state), " request ",
                id, " holds arena sequence ", e.seq,
                active ? ", which the arena does not know" : "");
        if (arena_.tokens(e.seq) != e.held())
            return Status::failedPrecondition(
                "scheduler: request ", id, " holds ", e.held(),
                " tokens but its sequence has ", arena_.tokens(e.seq));
        blocks += layers * ((e.held() + blockTokens - 1) / blockTokens);
    }
    if (arena_.blocksInUse() != blocks)
        return Status::failedPrecondition(
            "scheduler: arena holds ", arena_.blocksInUse(),
            " blocks but the live sequences need ", blocks);
    return Status::okStatus();
}

} // namespace serve
} // namespace figlut
