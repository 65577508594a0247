#include "sim/trace_replay.h"

#include "common/logging.h"
#include "serve/scheduler.h"

namespace figlut {

ReplayResult
replayTrace(const OptConfig &model, const HwConfig &hw,
            const ReplayOptions &options,
            const std::vector<ReplayRequest> &trace)
{
    FIGLUT_ASSERT(options.maxBatch > 0,
                  "replayTrace needs maxBatch >= 1, got ",
                  options.maxBatch);
    FIGLUT_ASSERT(options.kvBlockTokens > 0,
                  "replayTrace needs kvBlockTokens >= 1, got ",
                  options.kvBlockTokens);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        FIGLUT_ASSERT(trace[i].outputTokens >= 1,
                      "replayTrace request ", i,
                      " has outputTokens == 0; a replay needs finite ",
                      "decode budgets");
        FIGLUT_ASSERT(trace[i].deadlineS >= 0.0,
                      "replayTrace request ", i,
                      " has a negative deadline ", trace[i].deadlineS);
        FIGLUT_ASSERT(i == 0 ||
                          trace[i - 1].arrivalS <= trace[i].arrivalS,
                      "replayTrace trace must be sorted by arrival: ",
                      "request ", i, " at ", trace[i].arrivalS,
                      " follows ", trace[i - 1].arrivalS);
    }

    ReplayResult result;
    result.requests.resize(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        result.requests[i].arrivalS = trace[i].arrivalS;
        result.requests[i].promptTokens = trace[i].promptTokens;
        result.requests[i].outputTokens = trace[i].outputTokens;
    }

    const Accelerator accelerator(hw);
    WorkloadOptions workload;
    workload.weightBits = options.weightBits;
    workload.includeVector = options.includeVector;
    workload.groupSize = options.groupSize;
    workload.hasOffset = options.hasOffset;
    workload.shards = options.shards;

    // The shadow arena: same geometry, budget, and injector as the
    // engine's, but only ever reserve/release — no token is written,
    // so no slab chunk is materialized.
    KvArena::Options arenaOptions;
    arenaOptions.hidden = model.hidden;
    arenaOptions.layers = model.layers;
    arenaOptions.blockTokens = options.kvBlockTokens;
    arenaOptions.budgetBytes = options.kvBudgetBytes;
    KvArena arena(arenaOptions, options.faults);
    serve::SchedulerOptions schedOptions;
    schedOptions.maxBatch = options.maxBatch;
    schedOptions.maxQueue = options.maxQueue;
    schedOptions.prefillChunkTokens = options.prefillChunkTokens;
    schedOptions.policy = options.policy;
    serve::Scheduler sched(arena, schedOptions, options.faults);
    /** Trace index of scheduler id, at id - 1. */
    std::vector<std::size_t> traceOf;
    traceOf.reserve(trace.size());
    std::vector<std::size_t> contextLens;

    double simT = 0.0;
    std::size_t next = 0;
    while (true) {
        // Arrivals up to the current virtual time join before the next
        // step, exactly like submits landing between two step() calls.
        // The deadline and queue-wait base is the arrival; admission
        // is stamped at the step time simT.
        while (next < trace.size() && trace[next].arrivalS <= simT) {
            serve::RequestOptions request;
            request.maxTokens = trace[next].outputTokens;
            request.promptTokens = trace[next].promptTokens;
            request.deadlineS = trace[next].deadlineS;
            if (sched.submit(request, trace[next].arrivalS, simT).ok())
                traceOf.push_back(next);
            else
                result.requests[next].shed = true;
            ++next;
        }
        if (sched.idle()) {
            if (next == trace.size())
                break;
            simT = trace[next].arrivalS;
            continue;
        }

        const double t0 = simT;
        const serve::StepPlan &plan = sched.plan(t0);
        // Dropped and evicted requests lose the tokens of their life.
        for (const serve::RequestId id : plan.deadlineIds) {
            result.requests[traceOf[id - 1]].deadlineMiss = true;
            result.requests[traceOf[id - 1]].tokenTimesS.clear();
        }
        for (const serve::RequestId id : plan.shedIds) {
            result.requests[traceOf[id - 1]].shed = true;
            result.requests[traceOf[id - 1]].tokenTimesS.clear();
        }
        for (const serve::RequestId id : plan.evictedIds)
            result.requests[traceOf[id - 1]].tokenTimesS.clear();
        if (plan.work.empty())
            continue; // governance-only step: nothing recorded

        // One fused step: price the ragged mixed prefill/decode batch
        // on the accelerator at the engine's columnContexts, advance
        // virtual time, then complete it.
        contextLens.clear();
        serve::appendColumnContexts(plan.work, contextLens);
        workload.batch = contextLens.size();
        const double stepS =
            accelerator
                .runWorkload(decodeStepWorkload(model, workload,
                                                contextLens))
                .seconds;
        simT += stepS;
        for (const serve::PlannedWork &w : plan.work) {
            if (w.prefill) {
                result.prefillTokens += w.columns;
            } else {
                result.decodeTokens += 1;
                result.requests[traceOf[w.id - 1]].tokenTimesS.push_back(
                    simT);
            }
        }
        sched.complete(t0);
        for (const serve::RequestId id : plan.retiredIds)
            sched.releaseSequence(id);

        result.stepSeconds.push_back(stepS);
        result.queueDepth.push_back(sched.queue().size());
        ++result.steps;
    }
    for (std::size_t id = 1; id <= traceOf.size(); ++id) {
        const serve::ScheduleEntry &entry = *sched.find(id);
        result.requests[traceOf[id - 1]].queueS = entry.queueS;
        result.requests[traceOf[id - 1]].evictions = entry.evictions;
    }
    result.endS = simT;
    return result;
}

} // namespace figlut
