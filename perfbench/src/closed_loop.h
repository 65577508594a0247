/**
 * @file
 * Single-threaded closed loop around a serve::Engine.
 *
 * C clients each hold at most one outstanding request: a client
 * submits its next request (the next one of the workload list, in
 * list order) right after the step that brought its previous request
 * to a terminal state. Submissions happen between step() calls on the
 * calling thread, so the batch schedule — steps, batch composition,
 * kernel counters — depends only on the request list and the engine
 * options, never on host speed. With clients >= maxBatch plus the
 * most requests one step can retire (2 x maxBatch suffices), the
 * schedule also equals sim::replayTrace of the same list with every
 * request arriving at t=0, which the correctness gate checks.
 *
 * Every timing is read on the engine's clock around the public calls:
 * submit(), step() and poll(). CPU time per step is process CPU time.
 */

#ifndef PERFBENCH_CLOSED_LOOP_H
#define PERFBENCH_CLOSED_LOOP_H

#include <vector>

#include "serve/clock.h"
#include "serve/engine.h"
#include "workload.h"

namespace perfbench {

/** One step() call as the loop saw it. */
struct StepRecord
{
    double startS = 0.0;
    double endS = 0.0;
    double cpuS = 0.0;
    std::size_t prefillTokens = 0;
    std::size_t decodeTokens = 0;
    std::size_t evicted = 0;
    std::size_t shed = 0;
    std::size_t kvBlocksInUse = 0;
    figlut::LutGemmCounters counters;

    /** A step that did prefill or decode work (counted as a step). */
    bool work() const { return prefillTokens + decodeTokens > 0; }
};

/** One request from submit() to its terminal poll(). */
struct RequestRecord
{
    figlut::serve::RequestId id = 0;
    /** Clock time just before submit() was called. */
    double submitS = 0.0;
    /** Completion time (end of step) of each token of the surviving
     *  life; an eviction clears the earlier life's tokens. */
    std::vector<double> tokenTimesS;
    /** Tokens decoded in the current life (the retirement count). */
    std::size_t lifeTokens = 0;
    std::size_t evictions = 0;
    bool shed = false;
    /** The terminal poll() returned and reported a terminal state. */
    bool terminal = false;
    figlut::serve::RequestState state = figlut::serve::RequestState::Queued;
    /** Engine-side stats from the terminal poll. */
    figlut::serve::RequestStats stats;
    /** Final hidden state (the correctness gate's subject). */
    figlut::MatrixD hidden;
};

/** Hooks around the loop's calls into the engine (tracing). */
class LoopObserver
{
  public:
    virtual ~LoopObserver() = default;
    virtual void onSubmit(figlut::serve::RequestId, double, double) {}
    /** Called after every step() with its stats and the loop's timing. */
    virtual void onStep(const figlut::serve::StepStats &, double, double) {}
    virtual void onPoll(figlut::serve::RequestId, double, double) {}
};

/** Everything one closed-loop pass over a request list produced. */
struct LoopResult
{
    /** Per request, in list order. */
    std::vector<RequestRecord> requests;
    /** Every step() call, in order (governance-only steps included). */
    std::vector<StepRecord> steps;
    /** Time in submit() and in the terminal poll(), microseconds. */
    std::vector<double> submitUs;
    std::vector<double> pollUs;
    double startS = 0.0;
    double endS = 0.0;
    /** Process CPU seconds over the round. */
    double cpuS = 0.0;
    /** Engine-reported operation failures (a step() error). */
    std::size_t errors = 0;

    std::size_t workSteps() const;
    std::size_t prefillTokens() const;
    std::size_t decodeTokens() const;
    figlut::LutGemmCounters counters() const;
};

/**
 * Drive `requests` through `engine` as a closed loop of `clients`.
 * `clock` must be the engine's clock (EngineOptions::clock). The
 * engine must be idle on entry and is idle again on return.
 */
LoopResult runClosedLoop(figlut::serve::Engine &engine,
                          const figlut::serve::EngineClock &clock,
                          const std::vector<RequestSpec> &requests,
                          std::size_t clients, LoopObserver *observer = nullptr);

} // namespace perfbench

#endif // PERFBENCH_CLOSED_LOOP_H
