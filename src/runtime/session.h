/**
 * @file
 * Inference session: the single-client adapter over serve::Engine.
 *
 * A Session keeps the original "one lock-step batch, caller-driven
 * hidden states" surface — quantize -> pack -> execute behind one
 * object:
 *
 *     Session session(optByName("OPT-125M"), opts);
 *     MatrixD h = session.makeInput(rng);
 *     h = session.runDecodeStep(h).hidden;
 *
 * — but is now a thin wrapper: the constructor builds a serve::Engine
 * sized to the session batch and submits one unbounded request per
 * sequence; runDecodeStep() injects the caller's hidden columns with
 * Engine::provideInput() and runs one fused Engine::step(). The
 * numeric path (Simd LUT-GEMM kernels with pre-packed keys on one
 * shared ExecutionContext, reference vector ops, per-sequence KvCache)
 * is therefore exactly the serving path, and the Session differential
 * suites pin the Engine's per-column arithmetic. Construction-time
 * configuration errors keep the historical fatal() contract: the
 * engine's Status rejections are rethrown as FatalError.
 *
 * A Session is single-client like the Engine it wraps: one session per
 * serving thread. Request-level traffic (dynamic admission, ragged
 * budgets, recoverable errors) wants serve::Engine directly.
 */

#ifndef FIGLUT_RUNTIME_SESSION_H
#define FIGLUT_RUNTIME_SESSION_H

#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/execution_context.h"
#include "core/lut_gemm.h"
#include "model/workload.h"
#include "runtime/exec_options.h"
#include "runtime/kv_cache.h"
#include "runtime/quantized_model.h"
#include "sim/accelerator.h"

namespace figlut {

namespace serve {
class Engine;
using RequestId = std::uint64_t;
} // namespace serve

/**
 * Full configuration of a Session: the model/exec/request split of the
 * serving surface (runtime/exec_options.h), plus the lock-step batch
 * geometry that is the Session's own request shape.
 */
struct SessionOptions
{
    /** Weight materialization + quantization (see quantized_model.h). */
    QuantizedModelOptions quant;

    /** Host execution of the GEMM kernels (core/lut_gemm.h knobs). */
    ExecOptions exec;

    /** Sequences decoded in parallel (one hidden-state column each). */
    std::size_t batch = 1;
    /**
     * KV-cache length charged to the *analytic* attention cost
     * (workloadTasks()/simulate()). The numeric path attends over the
     * KV entries actually cached so far (kvLength()).
     */
    std::size_t contextLen = 512;
    /** Keep vector kernels in the emitted KernelTask list. */
    bool includeVector = true;
};

/** Result of one numeric decode step. */
struct DecodeStepResult
{
    /** Next hidden state, hidden x batch. */
    MatrixD hidden;
    /** Kernel op counters accumulated over the step's GEMMs. */
    LutGemmCounters counters;
    /** Weight GEMMs executed (4 per layer). */
    std::size_t gemmCalls = 0;
};

/** A live inference session over one quantized model. */
class Session
{
  public:
    /**
     * Build the session: materialize + quantize + pack every layer's
     * weights (the one-time cost), spawn no threads yet (the pool is
     * lazy in the first multi-worker GEMM call). Throws FatalError on an
     * invalid configuration (the recoverable form of the same checks
     * is serve::Engine::create).
     */
    Session(const OptConfig &model, const SessionOptions &options);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const QuantizedModel &model() const;
    const SessionOptions &options() const { return options_; }
    ExecutionContext &context();

    /** Synthetic hidden-state input, hidden x batch (model/synthetic.h). */
    MatrixD makeInput(Rng &rng) const;

    /**
     * Execute one full decode step numerically: every layer's GEMMs
     * through the LUT-GEMM kernel and its vector steps as reference
     * ops. hidden_in must be hidden x batch. Appends one KV entry per
     * layer (kvLength() grows by 1).
     */
    DecodeStepResult runDecodeStep(const MatrixD &hidden_in);

    /** The WorkloadOptions describing this session's decode step. */
    WorkloadOptions workloadOptions() const;

    /**
     * The executed layer graph as KernelTasks — element-for-element
     * equal to decodeStepWorkload(model().config(), workloadOptions()).
     */
    std::vector<KernelTask> workloadTasks() const;

    /** Score the emitted graph on a simulated accelerator. */
    WorkloadResult simulate(const HwConfig &hw) const;

    /** Decode steps currently held in the KV cache. */
    std::size_t kvLength() const;

    /**
     * KV history of sequence `seq` (batch column seq): one h x 1
     * snapshot per decode step and layer, by value.
     */
    KvCache kv(std::size_t seq = 0) const;

    /** Drop the KV cache (start a fresh sequence; weights persist). */
    void resetKv();

    /** The underlying request-level engine (advanced use). */
    serve::Engine &engine() { return *engine_; }

  private:
    SessionOptions options_;
    std::unique_ptr<serve::Engine> engine_;
    /** One unbounded engine request per batch column, column order. */
    std::vector<serve::RequestId> ids_;
};

} // namespace figlut

#endif // FIGLUT_RUNTIME_SESSION_H
