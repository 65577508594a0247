/**
 * @file
 * Full decode-step workloads: GEMM kernels plus the VPU kernels
 * (layer norms, attention softmax, GELU, residuals) that a transformer
 * decoder layer executes around them.
 *
 * The layer is described once, as a sequence of LayerStepSpec — each
 * step carrying its semantic operation (what to compute) together with
 * its analytic KernelTask (shape/op-count view). Two backends consume
 * the same description: serve::Engine executes the steps numerically
 * with the functional kernels, and sim/Accelerator scores the mapped
 * KernelTask sequence for timing/energy (Table V, Fig. 15) — one
 * description, two backends, so the scored workload is exactly the
 * executed one.
 */

#ifndef FIGLUT_MODEL_WORKLOAD_H
#define FIGLUT_MODEL_WORKLOAD_H

#include <cstddef>
#include <vector>

#include "model/opt_family.h"
#include "sim/accelerator.h"

namespace figlut {

/** Workload build options. */
struct WorkloadOptions
{
    std::size_t batch = 32;
    int weightBits = 4;
    /** KV-cache length used for attention VPU cost accounting. */
    std::size_t contextLen = 512;
    /** Include non-GEMM (VPU) kernels. */
    bool includeVector = true;
    /** Scale-group geometry of the quantized weights (0 = per-row). */
    std::size_t groupSize = 0;
    /** BCQ offset / uniform zero-point term present. */
    bool hasOffset = true;
    /**
     * Worker groups each GEMM is row-sharded across (stamped onto the
     * emitted GEMM tasks; 1 = unsharded). Shards > 1 makes the
     * Accelerator price one interconnect combine per GEMM.
     */
    int shards = 1;
};

/**
 * Semantic operation of one decoder-layer step, in execution order.
 * GEMM steps name the weight matrix they consume; vector steps name
 * the reference op the numeric backend runs.
 */
enum class LayerOp
{
    LayerNorm1, ///< pre-attention layer norm (vector)
    QkvProj,    ///< QKV projection GEMM, 3h x h
    Attention,  ///< KV-cache attention + softmax (vector)
    OutProj,    ///< attention output projection GEMM, h x h
    Residual1,  ///< attention residual add (vector)
    LayerNorm2, ///< pre-FFN layer norm (vector)
    Fc1,        ///< FFN up projection GEMM, f x h
    Gelu,       ///< GELU activation (vector)
    Fc2,        ///< FFN down projection GEMM, h x f
    Residual2,  ///< FFN residual add (vector)
};

/** Number of LayerOp values (they run 0 .. kLayerOpCount - 1). */
inline constexpr std::size_t kLayerOpCount = 10;
static_assert(static_cast<std::size_t>(LayerOp::Residual2) + 1 ==
                  kLayerOpCount,
              "kLayerOpCount counts every LayerOp");

/**
 * One step of a decoder layer: the semantic op plus its analytic
 * KernelTask. task.gemm carries the full quantized-GEMM description
 * (shape, weight bits, scale-group geometry, offset term) for GEMM
 * steps; task.vector carries the VPU op counts for vector steps.
 */
struct LayerStepSpec
{
    LayerOp op = LayerOp::LayerNorm1;
    KernelTask task;

    bool isGemm() const { return task.kind == KernelTask::Kind::Gemm; }
};

/**
 * The full step sequence of one decoder layer. Vector steps are always
 * present here (the numeric backend needs them to chain the GEMM
 * shapes); WorkloadOptions::includeVector only controls whether the
 * KernelTask mappings below keep them.
 */
std::vector<LayerStepSpec> layerSpecs(const OptConfig &model,
                                      const WorkloadOptions &options);

/**
 * Ragged-context layer description: one KV context length per batch
 * column (contextLens.size() must equal options.batch;
 * options.contextLen is ignored), so the attention cost is the sum of
 * per-column costs — the serve Engine's fused step over requests of
 * different ages. With uniform lengths this is element-for-element
 * equal to the lock-step overload above (every VPU op count is an
 * exact small-integer sum), which delegates here.
 */
std::vector<LayerStepSpec>
layerSpecs(const OptConfig &model, const WorkloadOptions &options,
           const std::vector<std::size_t> &contextLens);

/** Kernel sequence for one decoder layer. */
std::vector<KernelTask> layerWorkload(const OptConfig &model,
                                      const WorkloadOptions &options);

/** Kernel sequence for a whole decode step (all layers). */
std::vector<KernelTask> decodeStepWorkload(const OptConfig &model,
                                           const WorkloadOptions &options);

/** Ragged-context decode step (see the ragged layerSpecs overload). */
std::vector<KernelTask>
decodeStepWorkload(const OptConfig &model, const WorkloadOptions &options,
                   const std::vector<std::size_t> &contextLens);

} // namespace figlut

#endif // FIGLUT_MODEL_WORKLOAD_H
