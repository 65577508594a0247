/**
 * @file
 * Per-layer quantized weights of an OPT-style decoder, built once and
 * reused across every decode step — the weights every serve::Engine
 * step runs over (see serve/engine.h).
 *
 * Each decoder layer owns the four weight GEMM operands (QKV,
 * attention output, FC1, FC2) as BCQ tensors plus their pre-packed
 * LUT keys, so the per-call work of the serving loop is only LUT
 * builds and reads: quantization and key packing are one-time costs
 * paid at model build. Weights are synthetic stand-ins for real OPT
 * checkpoints (model/synthetic.h; DESIGN.md substitution #2),
 * deterministic in the options' seed.
 */

#ifndef FIGLUT_RUNTIME_QUANTIZED_MODEL_H
#define FIGLUT_RUNTIME_QUANTIZED_MODEL_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "model/opt_family.h"
#include "model/workload.h"
#include "quant/bcq.h"
#include "quant/packing.h"

namespace figlut {

/** How to materialize and quantize the model weights. */
struct QuantizedModelOptions
{
    int weightBits = 4;
    /** Columns per scale group (0 = one group per full row). */
    std::size_t groupSize = 0;
    /** Fit a BCQ offset term per (row, group). */
    bool useOffset = true;
    /** Alternating-optimization rounds of quantizeBcq. */
    int bcqIterations = 2;
    /** LUT group size the packed keys encode. */
    int mu = 4;
    /**
     * Materialize only the first maxLayers decoder layers (0 = all).
     * Quantizing a full model is minutes of one-time work; truncation
     * keeps examples/tests proportionate while exercising the same
     * per-layer path.
     */
    std::size_t maxLayers = 0;
    /**
     * Materialize PackedLutKeys per operand (the Packed and Simd
     * backends' input; ~q bytes per weight, more than the quantized
     * payload itself). The Engine disables this automatically for
     * backends that gather keys from the bit planes instead.
     */
    bool packKeys = true;
    /** Seed of the synthetic weight draw. */
    uint64_t seed = Rng::kDefaultSeed;
};

/** The four quantized weight operands of one decoder layer. */
struct QuantizedLayer
{
    BcqTensor qkv;     ///< 3h x h
    BcqTensor attnOut; ///< h x h
    BcqTensor fc1;     ///< f x h
    BcqTensor fc2;     ///< h x f
    PackedLutKeys qkvKeys;
    PackedLutKeys attnOutKeys;
    PackedLutKeys fc1Keys;
    PackedLutKeys fc2Keys;

    /** Operand of a GEMM step; fatal for non-GEMM ops. */
    const BcqTensor &weights(LayerOp op) const;
    const PackedLutKeys &keys(LayerOp op) const;
};

/** All layers of a quantized decoder, built once from an OptConfig. */
class QuantizedModel
{
  public:
    QuantizedModel(const OptConfig &model,
                   const QuantizedModelOptions &options);

    /**
     * The architecture actually materialized: a copy of the source
     * config with layers truncated to maxLayers when set. Workloads
     * emitted for this model (decodeStepWorkload and the Engine) use
     * this config, so the analytic and numeric views stay aligned.
     */
    const OptConfig &config() const { return config_; }
    const QuantizedModelOptions &options() const { return options_; }

    std::size_t layers() const { return layers_.size(); }
    const QuantizedLayer &layer(std::size_t l) const;

    /** Quantized weight payload (planes + scales + offsets), bytes. */
    std::size_t storageBytes() const;
    /** Pre-packed LUT key payload, bytes. */
    std::size_t packedKeyBytes() const;

  private:
    OptConfig config_;
    QuantizedModelOptions options_;
    std::vector<QuantizedLayer> layers_;
};

} // namespace figlut

#endif // FIGLUT_RUNTIME_QUANTIZED_MODEL_H
