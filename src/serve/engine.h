/**
 * @file
 * Request-level serving engine with continuous batching.
 *
 * Engine is the one serving surface of the library: independent
 * sequences are admitted, batched, and retired dynamically over one
 * shared quantized model:
 *
 *     auto engine = serve::Engine::create(optByName("OPT-125M"), opts);
 *     auto id = engine.value()->submit({.maxTokens = 32, .seed = 7});
 *     while (engine.value()->liveRequests() > 0)
 *         engine.value()->step();   // one fused decode step, all requests
 *     auto done = engine.value()->poll(id.value());
 *
 * step() gathers every working request's columns into a single
 * hidden x batchWidth matrix — a request still prefilling contributes
 * its next chunk of prompt embedding columns (bounded per step by
 * prefillChunkTokens across the batch), a decoding request its one
 * hidden column — so each layer's weight GEMM hits the Simd LUT
 * kernel exactly once per step: all requests share the model's
 * pre-packed keys and the engine's one ExecutionContext (the paper's
 * repeated-inference amortization, applied across clients). Attention
 * is ragged and causal: every column attends over its own sequence of
 * the engine's paged KV arena up to and including itself, so a
 * request's prompt is *computed* — real K/V written by real QKV
 * projections, real TTFT cost — before its first token decodes.
 * Requests admit up to maxBatch; excess submits wait in a FIFO queue
 * (up to maxQueue) and join as slots retire — continuous batching,
 * not lock-step epochs. Every scheduling decision is serve::Scheduler's
 * (serve/scheduler.h); the engine executes its plans numerically, the
 * same plans sim::replayTrace() prices.
 *
 * The engine is memory-governed and failure-aware: all KV bytes live
 * in one paged arena (runtime/kv_arena.h) under an optional byte
 * budget, every fused step starts with a deadline sweep and a KV
 * reservation pass, and shortfalls resolve through a degradation
 * policy (serve/scheduler.h) — shed-newest drops the youngest
 * traffic terminally, evict-longest-idle releases a victim's KV and
 * re-queues it for a from-scratch restart. A restarted
 * request re-derives its inputs from its seed, so its surviving
 * decode output is bit-identical to an unconstrained run. An optional
 * FaultInjector adds deterministic allocation failures and deadline
 * clock skew on top.
 *
 * Errors on the construction/submission paths are recoverable
 * (common/status.h): create() validates the model shape and every
 * execution knob, submit() rejects over-capacity traffic, poll() and
 * cancel() report unknown ids — a serving loop never dies on a bad
 * request. Programming errors (misuse of a value-holding Result) still
 * panic, and the numeric kernels keep their fatal contracts.
 *
 * An Engine is single-client: one engine per serving thread (its
 * ExecutionContext is not thread-safe). All stochastic inputs are
 * deterministic in the configured seeds, and a fused step is
 * bit-identical, per request, to that request running alone in a
 * batch-1 engine (the differential suite in
 * tests/serve/test_engine.cpp pins this).
 */

#ifndef FIGLUT_SERVE_ENGINE_H
#define FIGLUT_SERVE_ENGINE_H

#include <array>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/execution_context.h"
#include "model/workload.h"
#include "runtime/exec_options.h"
#include "runtime/kv_arena.h"
#include "runtime/kv_cache.h"
#include "runtime/quantized_model.h"
#include "serve/clock.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "sim/accelerator.h"

namespace figlut {

class ShardPlan;
class ShardedExecutor;

namespace serve {

/** Weight materialization options, owned by the engine (one-time). */
using ModelOptions = QuantizedModelOptions;

/** Full configuration of an Engine. */
struct EngineOptions
{
    /** Quantize/pack the shared weights (engine-owned, built once). */
    ModelOptions model;
    /** Host execution of the fused GEMMs (shared by all requests). */
    ExecOptions exec;
    /** Live requests per fused step (the admission bound). */
    std::size_t maxBatch = 8;
    /** Waiting requests beyond maxBatch; submits past this rejected. */
    std::size_t maxQueue = 64;
    /**
     * Per-step prefill token budget: how many prompt tokens one fused
     * step may fold into the GEMM batch alongside the live decode
     * columns, shared by every prefilling request in batch order
     * (serve/scheduler.h). 0 = unbounded — each request's whole
     * remaining prompt prefills in one step. Bounding it caps the
     * fused batch width, so long prompts cannot starve live decoders;
     * chunking never changes results, only scheduling (chunked and
     * whole-prompt prefill are bit-identical per request).
     */
    std::size_t prefillChunkTokens = 0;
    /** Keep vector kernels in workloadTasks(). */
    bool includeVector = true;
    /**
     * Time source of every request-level timing (queue wait, TTFT,
     * step seconds). nullptr = an engine-owned monotonic wall clock;
     * a VirtualClock here makes latency accounting deterministic for
     * tests and simulated-time replays (serve/clock.h). Not owned;
     * must outlive the engine.
     */
    const EngineClock *clock = nullptr;
    /**
     * KV arena byte budget across all live requests; 0 = unbounded
     * (the pre-governance behavior). When bounded, each fused step
     * runs a reservation pass and resolves shortfalls through the
     * degradation policy below. Must hold at least one block per
     * layer.
     */
    std::size_t kvBudgetBytes = 0;
    /** Paging granularity of the KV arena, in tokens per block. */
    std::size_t kvBlockTokens = 16;
    /** What to do with live traffic when the budget runs out. */
    DegradationPolicy policy = DegradationPolicy::ShedNewest;
    /**
     * Optional failure seam: consulted on every arena block
     * allocation and for per-step clock skew on the deadline clock.
     * Not owned; must outlive the engine. Implementations must be
     * pure (see FaultInjector) when shared with a trace replay.
     */
    FaultInjector *faults = nullptr;
    /**
     * Materialize a request's KV into a contiguous snapshot when it
     * finishes or is cancelled (so kvHistory() keeps working after
     * the arena blocks are reclaimed). Serving fleets that never read
     * finished KV can turn this off.
     */
    bool retainFinishedKv = true;
};

/** Whole-step accounting returned by Engine::step(). */
struct StepStats
{
    /** Requests that did work (prefill or decode) in this fused step. */
    std::size_t liveRequests = 0;
    /**
     * Requests admitted from the queue around this step: into free
     * slots before decoding, and into slots freed by retirement after
     * (those decode from the next step).
     */
    std::size_t admitted = 0;
    /** Requests retired (budget reached) after this step. */
    std::size_t retired = 0;
    /** Weight GEMM kernel calls (4 per layer, whole batch each). */
    std::size_t gemmCalls = 0;
    /** Kernel op counters over the whole fused step. */
    LutGemmCounters counters;
    /** Clock seconds of the fused step (gather + layers, no admin). */
    double seconds = 0.0;
    /**
     * Clock seconds of each LayerOp, indexed by its value and summed
     * over layers (Attention includes its K/V arena appends). The
     * clock is read at every op boundary, so on a clock that does not
     * move during the step (VirtualClock) every entry is 0.
     */
    std::array<double, kLayerOpCount> opSeconds{};
    /** The rest of `seconds`: planning and the gather. */
    double otherSeconds = 0.0;
    /** Requests still waiting after this step's final admission. */
    std::size_t queueDepth = 0;
    /** Prompt tokens prefilled across the whole fused batch. */
    std::size_t prefillTokens = 0;
    /** Decode tokens produced across the whole fused batch (one per
     *  decoding request). prefillTokens + decodeTokens is the fused
     *  GEMM batch width; both 0 means the step did no work (and does
     *  not count toward stepsExecuted()). */
    std::size_t decodeTokens = 0;
    /**
     * The requests this step decoded one token for, in fused batch
     * order — the per-token completion hook load harnesses use to
     * stamp inter-token latencies without polling every id. Empty
     * (with ok status) when deadline sweeps, the reservation pass, or
     * the prefill chunk budget left nothing to decode (a pure-prefill
     * step has work but no decoded ids).
     */
    std::vector<RequestId> decodedIds;
    /** Requests this step prefilled prompt tokens for, batch order. */
    std::vector<RequestId> prefillIds;
    /**
     * Analytic context length of every fused GEMM column, in gather
     * order (each working request's columns are contiguous): a prompt
     * column at sequence position p reports p + 1 (its causal
     * window), a decode column its full context. Exactly the
     * contextLens decodeStepWorkload() prices this step with — the
     * hook the replay-equivalence tests use to score the executed
     * step without reconstructing the chunk schedule.
     */
    std::vector<std::size_t> columnContexts;
    /** Requests shed terminally by the reservation pass this step. */
    std::vector<RequestId> shedIds;
    /** Requests evicted (KV released, re-queued) this step. */
    std::vector<RequestId> evictedIds;
    /** Requests dropped by the deadline sweep this step. */
    std::vector<RequestId> deadlineIds;
    /** Arena blocks held after this step. */
    std::size_t kvBlocksInUse = 0;
    /** Arena bytes held after this step. */
    std::size_t kvBytesInUse = 0;

    /** opSeconds of one op. */
    double
    opSecondsOf(LayerOp op) const
    {
        return opSeconds[static_cast<std::size_t>(op)];
    }
};

/** A request-level serving engine over one shared quantized model. */
class Engine
{
  public:
    /**
     * Validate the architecture and every execution knob, then build
     * the engine: materialize + quantize + (for the Simd backend)
     * key-pack all layers — the one-time cost. Returns InvalidArgument
     * with an actionable message instead of constructing on bad input.
     */
    static Result<std::unique_ptr<Engine>>
    create(const OptConfig &model, const EngineOptions &options);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;
    /** Out of line: unique_ptr members of incomplete shard types. */
    ~Engine();

    const QuantizedModel &model() const { return model_; }
    const EngineOptions &options() const { return options_; }
    ExecutionContext &context() { return ctx_; }
    /** Worker groups each fused GEMM is row-sharded across (resolved
     *  from ExecOptions::shards / FIGLUT_SHARDS at construction;
     *  1 = the unsharded single-context path). */
    int shards() const { return shards_; }

    /**
     * Submit a new request. Admitted immediately when a batch slot is
     * free, queued when live traffic is at maxBatch, rejected with
     * ResourceExhausted when the queue is also full. The initial
     * hidden state is drawn from the request's seed.
     */
    Result<RequestId> submit(const RequestOptions &request);

    /**
     * One fused step over all live requests: sweep deadlines, admit
     * from the queue into free slots, assign each live request its
     * work — a prefill chunk (bounded by prefillChunkTokens across
     * the batch) while its prompt is unfinished, one decode column
     * after — run the KV reservation pass over the working requests
     * (shedding or evicting through the degradation policy when the
     * budget or an injected fault denies blocks), gather prompt/
     * hidden columns, run every layer's GEMMs once over the whole
     * mixed-width batch (pre-packed keys, shared context) with
     * ragged causal paged-KV attention, append one KV entry per
     * (column, layer), then retire requests that reached their token
     * budget. FailedPrecondition when no request is live or queued;
     * ok with zero prefillTokens + decodeTokens when governance
     * dropped every working column.
     */
    Result<StepStats> step();

    /** Point-in-time copy of a request's state; NotFound if unknown. */
    Result<RequestSnapshot> poll(RequestId id) const;

    /**
     * Cancel a queued or active request, freeing its slot for the
     * queue. The record stays pollable. FailedPrecondition when the
     * request already retired.
     */
    Status cancel(RequestId id);

    /**
     * Drop a request's KV history, prompt included (restart its
     * sequence; weights, stats, and budget are unaffected). Rejected
     * once retired.
     */
    Status resetKv(RequestId id);

    /**
     * Copy of a request's full KV history: materialized from the
     * arena while live, the retained snapshot after Finished or
     * cancel() (empty when retainFinishedKv is off, and for requests
     * dropped by governance). NotFound if unknown.
     */
    Result<KvCache> kvHistory(RequestId id) const;

    /** Requests currently decoding (columns of the next fused step). */
    std::size_t liveRequests() const { return sched_.active().size(); }
    /** Requests waiting for a slot. */
    std::size_t queuedRequests() const { return sched_.queue().size(); }
    /** Fused steps executed so far (steps that did prefill or decode
     *  work; empty governance-only steps are not counted). */
    std::size_t stepsExecuted() const { return sched_.workSteps(); }
    /** The paged KV arena backing every live request. */
    const KvArena &arena() const { return arena_; }

    /** The schedule's invariants against the arena (see
     *  Scheduler::checkInvariants); ok between steps. */
    Status checkInvariants() const { return sched_.checkInvariants(); }

    /**
     * The KernelTask list of the *next* fused step: GEMMs at the
     * mixed prefill/decode batch width the step will run (live
     * requests plus the queued ones it will admit into free slots,
     * each contributing its prefill chunk or one decode column),
     * attention priced at every column's causal context — so
     * sim::Accelerator scores exactly the workload step() executes.
     * Empty when nothing is live or queued.
     */
    std::vector<KernelTask> workloadTasks() const;

    /** Score the next fused step on a simulated accelerator. */
    WorkloadResult simulate(const HwConfig &hw) const;

  private:
    /** The numeric state of one request; its schedule lives in
     *  sched_ under the same id (see serve/request.h for the public
     *  view). */
    struct Request
    {
        MatrixD hidden; ///< next-step input, hidden x 1
        /** Contiguous snapshot kept at Finished/Cancelled when
         *  retainFinishedKv is on (the arena blocks are reclaimed). */
        KvCache retainedKv;
        RequestStats stats;
        /** Prompt embeddings (hidden x promptTokens), drawn from the
         *  seed at the life's first work step and released once the
         *  last chunk is computed — only requests mid-prefill hold
         *  them. */
        MatrixD promptEmbeds;
        /** This life's seed replay (hidden redraw + prompt embedding
         *  draw) has happened. */
        bool lifeReady = false;
        /** An eviction is awaiting its restartSeconds stamp. */
        bool restartPending = false;
        /** Step-start time of the eviction that re-queued this
         *  request (the restartSeconds base). */
        double requeuedAtS = 0.0;
        /** Definite terminal outcome (see RequestSnapshot::terminal). */
        Status terminal;
    };

    Engine(const OptConfig &model, const EngineOptions &options);

    /** NotFound for an unknown id, FailedPrecondition once retired. */
    Status checkLive(RequestId id) const;
    /** Replay the request's seed at the first work step of a life:
     *  redraw the hidden state (a restart's from-scratch recompute)
     *  and materialize the prompt embeddings the prefill consumes. */
    void prepareLife(Request &req, const ScheduleEntry &entry);
    /** Release the request's arena sequence, materializing it into
     *  retainedKv first when retainFinishedKv is on. */
    void retireSequence(RequestId id);

    QuantizedModel model_;
    EngineOptions options_;
    ExecutionContext ctx_;
    /** Resolved shard count (>= 1; normalized into options_.exec). */
    int shards_ = 1;
    /** Row-partition of every GEMM operand (null when shards_ == 1). */
    std::unique_ptr<ShardPlan> shardPlan_;
    /** NUMA-aware worker groups running the plan (null when
     *  shards_ == 1: the unsharded path keeps using ctx_). */
    std::unique_ptr<ShardedExecutor> shardExec_;
    /** Fallback time source when EngineOptions::clock is null. */
    SteadyClock ownedClock_;
    const EngineClock *clock_ = nullptr;
    /** Semantic op order of one decoder layer (construction-invariant). */
    std::vector<LayerOp> layerOps_;
    /** Paged KV slab shared by all requests. */
    KvArena arena_;
    /** Queue, active list (= fused batch column order) and schedule. */
    Scheduler sched_;
    /** Numeric state of request id at index id - 1. */
    std::vector<Request> requests_;
};

} // namespace serve
} // namespace figlut

#endif // FIGLUT_SERVE_ENGINE_H
