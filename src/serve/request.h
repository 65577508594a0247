/**
 * @file
 * Request model of the serving surface (serve/engine.h).
 *
 * A request is one independent decode sequence: it is submitted with
 * its own token budget and input seed, admitted into the engine's
 * fused batch when a slot frees, decoded one token per Engine::step()
 * alongside every other live request, and retired when it reaches its
 * budget (or is cancelled). Each request holds one sequence of the
 * engine's paged KV arena, so live requests may have arbitrarily
 * different context lengths — and the engine can reclaim a sequence
 * whole under memory pressure.
 *
 * Lifecycle:  submit() -> Queued <-> Active -> Finished
 *                               \-> Cancelled (client, pre-Finished)
 *                               \-> Shed (memory pressure, terminal)
 *                               \-> DeadlineExceeded (terminal)
 * The Active -> Queued back edge is an eviction: it releases the
 * request's KV and re-queues it, still Queued, for a from-scratch
 * restart (counted in RequestStats::preemptions).
 */

#ifndef FIGLUT_SERVE_REQUEST_H
#define FIGLUT_SERVE_REQUEST_H

#include <cstddef>
#include <cstdint>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/lut_gemm.h"

namespace figlut {
namespace serve {

/** Opaque handle of a submitted request (monotonic, never reused). */
using RequestId = std::uint64_t;

/** Per-request knobs, fixed at submit(). */
struct RequestOptions
{
    /**
     * Decode steps before the engine retires the request (its token
     * budget). 0 = unbounded: the request decodes until cancelled.
     */
    std::size_t maxTokens = 16;
    /**
     * Seed of the request's synthetic inputs (model/synthetic.h): the
     * initial hidden state (used directly when promptTokens == 0) and
     * the prompt embedding matrix the prefill phase runs through the
     * model. Each decode step's output feeds the next step.
     */
    std::uint64_t seed = Rng::kDefaultSeed;
    /**
     * Prompt length in tokens. Before its first decode step the
     * request goes through a *computed prefill*: its synthetic prompt
     * embeddings (hidden x promptTokens, drawn from `seed` after the
     * hidden state) run through every layer with causal attention,
     * writing real K/V — the QKV projection outputs — into the arena,
     * and the final prompt column's output becomes the first decode
     * input. Prefill work is scheduled in chunks
     * (EngineOptions::prefillChunkTokens) alongside live decode
     * columns, billed in StepStats and the workloadTasks() pricing, so
     * long-prompt traffic pays real TTFT cost, as it should.
     */
    std::size_t promptTokens = 0;
    /**
     * Seconds after submit() by which the request must finish; past
     * it the engine drops the request with DeadlineExceeded at the
     * start of the next fused step. 0 = no deadline.
     */
    double deadlineS = 0.0;
};

/** Where a request is in its lifecycle. */
enum class RequestState
{
    Queued,    ///< submitted, waiting for a batch slot
    Active,    ///< participating in fused decode steps
    Finished,  ///< reached its token budget; record kept for poll()
    Cancelled, ///< cancelled by the client; record kept for poll()
    /** Dropped under memory pressure (terminal, ResourceExhausted). */
    Shed,
    /** Dropped past its deadline (terminal, DeadlineExceeded). */
    DeadlineExceeded,
};

/** Stable name of a RequestState ("queued", ...). */
const char *requestStateName(RequestState state);

/** True for the states a request never leaves (Finished, Cancelled,
 *  Shed, DeadlineExceeded). */
bool requestStateTerminal(RequestState state);

/** Per-request accounting, updated by every fused step. */
struct RequestStats
{
    /** Decode steps this request has executed. */
    std::size_t tokensDecoded = 0;
    /** Prompt tokens this request has prefilled, cumulative across
     *  lives (an evicted request prefills its prompt again). */
    std::size_t prefillTokens = 0;
    /** Weight GEMMs this request has ridden through (4 per layer). */
    std::size_t gemmCalls = 0;
    /**
     * This request's exact share of the fused-step kernel counters,
     * weighted by the columns (tokens) it contributed to each step:
     * every LutGemmCounters closed form is linear in the batch columns
     * with no cross-column terms, so a per-column split scaled by the
     * request's column count is exact (the differential suite pins it
     * against a batch-1 run, and the scatter path asserts the shares
     * reassemble to the step total).
     */
    LutGemmCounters counters;
    /** Fused steps that ran while this request sat in the queue. */
    std::size_t queuedSteps = 0;
    /** Times this request was evicted (KV dropped, restarted). */
    std::size_t preemptions = 0;
    /**
     * Seconds from submit() to the *start* of the first fused step
     * that did any work (prefill or decode) for this request: the
     * full pre-compute wait, covering both queue time and any
     * admitted-but-idle gap until the driver's next step() call.
     * Stamped exactly once, at the request's first-ever compute step;
     * 0 until then. Post-preemption waits land in restartSeconds.
     */
    double queueSeconds = 0.0;
    /**
     * Re-admission wait accumulated across preemptions: for each
     * eviction, the seconds from the evicting step's start to the
     * start of the first step that worked on the restarted life.
     * 0 for never-preempted requests.
     */
    double restartSeconds = 0.0;
    /**
     * Time to first token: seconds from submit() to the end of the
     * first fused step that decoded this request — queueSeconds plus
     * every prefill step in between plus that step's duration. 0
     * until the first token lands.
     */
    double ttftSeconds = 0.0;
    /** Seconds inside the fused steps this request joined (prefill
     *  steps included). */
    double decodeSeconds = 0.0;
    /** Seconds inside the fused steps that prefilled prompt tokens
     *  for this request (a subset of decodeSeconds). */
    double prefillSeconds = 0.0;
};

/** Point-in-time copy of a request's externally visible state. */
struct RequestSnapshot
{
    RequestId id = 0;
    RequestState state = RequestState::Queued;
    /** Latest hidden state, hidden x 1 (the next step's input). */
    MatrixD hidden;
    /** KV entries (prompt + decode) the request currently holds. */
    std::size_t kvLength = 0;
    RequestStats stats;
    /**
     * Why the request ended: OK while live and for Finished; the
     * definite terminal Status (Cancelled, ResourceExhausted for a
     * shed, DeadlineExceeded) otherwise — every non-completed request
     * carries one.
     */
    Status terminal;
};

} // namespace serve
} // namespace figlut

#endif // FIGLUT_SERVE_REQUEST_H
