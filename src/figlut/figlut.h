/**
 * @file
 * Umbrella header: the full FIGLUT public API.
 *
 * Layering (see DESIGN.md):
 *   common   - containers, RNG, logging, output formatting
 *   numerics - bit-exact FP16/BF16, pre-alignment
 *   quant    - RTN, BCQ, uniform->BCQ, packing, mixed precision
 *   core     - LUT/hFFLUT/generator/RAC, LUT-GEMM, engine numerics,
 *              thread pool + execution context
 *   arch     - 28nm technology, LUT power, memory, area/energy models
 *   sim      - tile timing, detailed systolic sim, engine simulator
 *   model    - OPT workloads, synthetic data, perplexity proxy
 *   runtime  - quantized models, KV caches + the paged KV arena,
 *              exec options, reference vector ops
 *   serve    - request-level engine with continuous batching over one
 *              shared quantized model (Status/Result error surface),
 *              memory-governed by a KV byte budget with pluggable
 *              degradation policies and fault injection
 */

#ifndef FIGLUT_FIGLUT_H
#define FIGLUT_FIGLUT_H

#include "common/csv.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

#include "numerics/bf16.h"
#include "numerics/fp16.h"
#include "numerics/fp_format.h"
#include "numerics/prealign.h"
#include "numerics/softfloat.h"

#include "quant/bcq.h"
#include "quant/mixed_precision.h"
#include "quant/packing.h"
#include "quant/rtn.h"
#include "quant/uniform_to_bcq.h"

#include "core/engine_numerics.h"
#include "core/execution_context.h"
#include "core/half_lut.h"
#include "core/lut.h"
#include "core/lut_gemm.h"
#include "core/lut_generator.h"
#include "core/lut_key.h"
#include "core/parallel.h"
#include "core/simd.h"

#include "arch/area_model.h"
#include "arch/bank_conflict.h"
#include "arch/energy_model.h"
#include "arch/lut_power.h"
#include "arch/memory_model.h"
#include "arch/tech_params.h"

#include "sim/accelerator.h"
#include "sim/engine_config.h"
#include "sim/engine_sim.h"
#include "sim/figlut_pipeline.h"
#include "sim/op_counts.h"
#include "sim/systolic_sim.h"
#include "sim/tile_scheduler.h"
#include "sim/timing_model.h"
#include "sim/trace_replay.h"
#include "sim/vpu.h"

#include "model/opt_family.h"
#include "model/ppl.h"
#include "model/synthetic.h"
#include "model/workload.h"

#include "runtime/exec_options.h"
#include "runtime/kv_arena.h"
#include "runtime/kv_cache.h"
#include "runtime/quantized_model.h"
#include "runtime/reference_ops.h"

#include "shard/numa.h"
#include "shard/shard_plan.h"
#include "shard/sharded_executor.h"

#include "serve/clock.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "serve/scheduler.h"

#endif // FIGLUT_FIGLUT_H
