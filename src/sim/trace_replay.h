/**
 * @file
 * Trace replay on the simulated accelerator: the serving engine's
 * continuous-batching schedule, re-run in virtual time with every
 * fused step priced by sim::Accelerator instead of executed on the
 * host.
 *
 * replayTrace() consumes the same arrival trace a measured
 * serving_load run drives through serve::Engine and executes the
 * shared serve::Scheduler's plans (serve/scheduler.h) — the scheduler
 * the engine runs, so admission, the deadline sweep, chunked prefill,
 * the KV reservation pass with its shed/evict outcomes, and
 * retirement are the engine's by construction. Each plan is priced
 * at its per-column causal contexts with decodeStepWorkload() (the
 * mapping Engine::workloadTasks() emits) and advances a virtual clock
 * by the Accelerator score. The result is per-request latency in
 * *simulated* seconds, directly comparable against the measured run.
 *
 * A bounded kvBudgetBytes runs the scheduler against a shadow KvArena
 * (same block geometry, same FaultInjector) that only *reserves*
 * blocks and never writes a KV byte, so a replay costs block-table
 * bookkeeping, not slab memory. This is a deliberate inversion of the
 * layer map (sim consuming runtime/kv_arena.h and serve/scheduler.h):
 * the replay is a model *of* the serving engine.
 *
 * Two time bases: a request's deadline and queueS are measured from
 * its arrivalS, while admissions are stamped at the virtual step time.
 * The engine measures deadlines from the actual submit time, so the
 * two agree whenever arrivals are released on time (the pinned case)
 * and differ by the submit lag otherwise.
 *
 * tests/bench_load pins the equivalence: a serve::Engine driven on a
 * VirtualClock advanced by the identical per-step scores produces
 * bit-identical shed sets, token completion times, and queue depths —
 * with and without a KV budget, eviction, deadlines, and injected
 * allocation faults.
 */

#ifndef FIGLUT_SIM_TRACE_REPLAY_H
#define FIGLUT_SIM_TRACE_REPLAY_H

#include <cstdint>
#include <vector>

#include "model/workload.h"
#include "runtime/kv_arena.h"
#include "serve/scheduler.h"
#include "sim/accelerator.h"

namespace figlut {

/** One arriving request of a replayed trace. */
struct ReplayRequest
{
    double arrivalS = 0.0;         ///< submit time, seconds from start
    std::size_t promptTokens = 0;  ///< prompt length (prefilled before
                                   ///< the first decoded token)
    std::size_t outputTokens = 1;  ///< decode budget (must be >= 1)
    /** Seconds after arrival by which the request must finish; 0 =
     *  no deadline (mirrors RequestOptions::deadlineS). */
    double deadlineS = 0.0;
};

/** Scheduling and workload-pricing knobs, mirroring EngineOptions. */
struct ReplayOptions
{
    std::size_t maxBatch = 8; ///< live requests per fused step
    std::size_t maxQueue = 64; ///< waiting bound; shed beyond
    int weightBits = 4;        ///< quantized weight width of the GEMMs
    bool includeVector = true; ///< price the VPU kernels too
    std::size_t groupSize = 0; ///< scale-group geometry (0 = per-row)
    bool hasOffset = true;     ///< BCQ offset term present
    /** Worker groups each GEMM is row-sharded across, as
     *  ExecOptions::shards resolves in the engine (1 = unsharded);
     *  shards > 1 prices one interconnect combine per GEMM. */
    int shards = 1;
    /** KV byte budget (0 = unbounded), as EngineOptions::kvBudgetBytes. */
    std::size_t kvBudgetBytes = 0;
    /** Arena paging granularity, as EngineOptions::kvBlockTokens. */
    std::size_t kvBlockTokens = 16;
    /** Per-step prefill token budget shared across the batch, as
     *  EngineOptions::prefillChunkTokens (0 = unbounded). */
    std::size_t prefillChunkTokens = 0;
    /** Degradation policy under budget pressure. */
    serve::DegradationPolicy policy =
        serve::DegradationPolicy::ShedNewest;
    /** Shared failure seam (must be pure; see FaultInjector). Not
     *  owned. nullptr = no faults, no clock skew. */
    FaultInjector *faults = nullptr;
};

/** Simulated outcome of one trace request (trace order). */
struct ReplayRequestResult
{
    double arrivalS = 0.0;
    std::size_t promptTokens = 0;
    std::size_t outputTokens = 0;
    /** Dropped terminally under capacity pressure: rejected at submit
     *  (queue full) or shed mid-flight by the KV budget. */
    bool shed = false;
    /** Dropped past its deadline (terminal). */
    bool deadlineMiss = false;
    /** Times the request was evicted and re-queued (its token times
     *  only reflect the final, surviving life — which prefills the
     *  prompt again from scratch). */
    std::size_t evictions = 0;
    /** Arrival to the start of the first step that worked on this
     *  request — prefill or decode (0 if shed before any work). */
    double queueS = 0.0;
    /** Virtual completion time of each *decoded* token, oldest first
     *  (prefill steps advance the clock but complete no token, so
     *  tokenTimesS[0] - arrivalS is the honest simulated TTFT:
     *  queue wait + every prefill step + the first decode step). */
    std::vector<double> tokenTimesS;
};

/** Aggregated replay outcome. */
struct ReplayResult
{
    /** Per-request outcomes, in trace order. */
    std::vector<ReplayRequestResult> requests;
    /** Fused steps that did work — prefill or decode (empty
     *  governance-only steps are not counted, matching
     *  Engine::stepsExecuted()). */
    std::size_t steps = 0;
    /** Prompt tokens prefilled across all steps (re-prefills after an
     *  eviction counted again, matching the engine's recompute). */
    std::size_t prefillTokens = 0;
    /** Decode tokens completed across all steps. */
    std::size_t decodeTokens = 0;
    /** Simulated duration of each step, in execution order. */
    std::vector<double> stepSeconds;
    /** Wait-queue depth after each step's final admission. */
    std::vector<std::size_t> queueDepth;
    /** Virtual time when the last step finished. */
    double endS = 0.0;
};

/**
 * Replay an arrival trace (sorted by arrivalS, every outputTokens
 * >= 1) against the accelerator model `hw`, under serve::Engine's
 * scheduler and memory governance. Deterministic:
 * a pure function of its arguments (FaultInjector purity included).
 */
ReplayResult replayTrace(const OptConfig &model, const HwConfig &hw,
                         const ReplayOptions &options,
                         const std::vector<ReplayRequest> &trace);

} // namespace figlut

#endif // FIGLUT_SIM_TRACE_REPLAY_H
