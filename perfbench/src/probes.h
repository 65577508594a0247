/**
 * @file
 * Layer probes of the traced run, timed from outside the engine.
 *
 * After a step, the probes repeat that step's layer work through the
 * layers' public functions at the step's exact shape:
 *
 *  - GEMM (core): the 4 x L weight GEMMs through lutGemm() with the
 *    engine's own quantized weights and packed keys, the engine's
 *    kernel configuration, and a private ExecutionContext with the
 *    same worker count, on synthetic activations of the step's width;
 *  - attention (runtime): ragged referenceDecodeAttention() per layer
 *    over the step's columnContexts against synthetic KV, building the
 *    per-column token views as the engine does.
 *
 * Step time minus both probes estimates the rest of the step
 * (layernorm, GELU, residuals, gather/scatter, KV reservation).
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <vector>

#include "common/rng.h"
#include "core/execution_context.h"
#include "runtime/reference_ops.h"
#include "serve/engine.h"
#include "spans.h"

namespace perfbench {

/** What one probe pass over a step measured. */
struct ProbeSample
{
    double gemmS = 0.0;
    double attnS = 0.0;
    /** Counters of the probe GEMMs (equal to the step's own). */
    figlut::LutGemmCounters counters;
    /** Bytes the probe GEMMs move, computed from tensor sizes: packed
     *  keys, scales and offsets, activations in and outputs out. */
    double gemmBytes = 0.0;
};

class LayerProbes
{
  public:
    /** Probe the engine's model with `threads` GEMM workers, timing
     *  on `clock` (the loop's clock, so spans share one timeline). */
    LayerProbes(const figlut::serve::Engine &engine,
                const figlut::serve::EngineClock &clock, int threads);

    LayerProbes(const LayerProbes &) = delete;
    LayerProbes &operator=(const LayerProbes &) = delete;

    /** Repeat the GEMMs and attention of a step that did work,
     *  recording one span per probe call under step id `step`. */
    ProbeSample run(const figlut::serve::StepStats &stats,
                    SpanRecorder &spans, std::int64_t step);

  private:
    void growKv(std::size_t tokens);

    const figlut::serve::Engine &engine_;
    const figlut::serve::EngineClock &clock_;
    figlut::ExecutionContext ctx_;
    figlut::LutGemmConfig config_;
    figlut::Rng rng_;
    /** Synthetic K/V, one row of `hidden` doubles per token. */
    std::vector<double> kvK_, kvV_;
    std::vector<figlut::KvTokenRef> refs_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
