/**
 * @file
 * The correctness gate every run passes through, outside the timed
 * window:
 *
 *  - every request reached a terminal state, and every Finished one
 *    produced exactly its token budget in its surviving life;
 *  - a sample of requests (every evicted one first) is re-run alone on
 *    a Reference-backend engine, and each final hidden state must be
 *    bit-identical to the one the request produced in the batch — the
 *    engine's batch-1 contract, which holds across eviction restarts;
 *  - sim::replayTrace of the same requests, all arriving at t=0,
 *    reproduces the executed step count and the prefill and decode
 *    token totals.
 */

#ifndef PERFBENCH_GATE_H
#define PERFBENCH_GATE_H

#include <string>
#include <vector>

#include "closed_loop.h"
#include "sim/trace_replay.h"

namespace perfbench {

/** Findings of the gate over one run. */
struct GateReport
{
    /** Requests re-run alone on the Reference backend. */
    std::size_t checked = 0;
    /** Per request: failed a check (not terminal, wrong token count,
     *  or hidden-state mismatch). */
    std::vector<char> failed;
    /** Hidden-state mismatches among the checked requests. */
    std::size_t mismatches = 0;
    /** One line per failed check. */
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
};

/** Terminal-state and token-count checks; sizes report.failed. */
void checkTerminal(const std::vector<RequestSpec> &requests,
                   const LoopResult &run, GateReport &report);

/**
 * Indices the batch-1 check re-runs, within a budget of prompt plus
 * output tokens (the Reference backend is slow): every request evicted
 * at least once first, then requests in a seeded order, skipping any
 * that would overrun the budget. The first candidate is always taken.
 * Shed requests have no final state and are skipped.
 */
std::vector<std::size_t> gateSample(const std::vector<RequestSpec> &requests,
                                    const LoopResult &run,
                                    std::size_t tokenBudget,
                                    std::uint64_t seed);

/**
 * Re-run each sampled request alone (maxBatch 1, unbounded KV, whole
 * prompt in one step) on a Reference-backend engine built from the
 * same model options, and compare final hidden states bit for bit.
 */
void verifyBatchOne(const figlut::OptConfig &model,
                    const figlut::serve::EngineOptions &options,
                    const std::vector<RequestSpec> &requests,
                    const LoopResult &run,
                    const std::vector<std::size_t> &sample,
                    GateReport &report);

/** The run's requests replayed on the simulated accelerator with
 *  every request arriving at t=0, under the engine's options. */
figlut::ReplayResult replayAtZero(const figlut::OptConfig &model,
                                  const figlut::serve::EngineOptions &options,
                                  const std::vector<RequestSpec> &requests);

/** The replay's step count and token totals must equal the run's. */
void checkReplay(const figlut::ReplayResult &replay, const LoopResult &run,
                 GateReport &report);

/** Bitwise equality of two matrices (shape and every double's bits). */
bool bitIdentical(const figlut::MatrixD &a, const figlut::MatrixD &b);

} // namespace perfbench

#endif // PERFBENCH_GATE_H
