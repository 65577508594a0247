/**
 * @file
 * Host-execution options of the runtime and serve layers.
 *
 * The serving surface keeps three concerns separate:
 *  - ModelOptions (QuantizedModelOptions): how weights are
 *    materialized, quantized, and key-packed — owned by the model /
 *    Engine, one-time cost.
 *  - ExecOptions (this header): how GEMM kernels execute on the host —
 *    backend, worker budget, tile height, activation/accumulate
 *    formats. Shared by every request an Engine serves.
 *  - RequestOptions (serve/request.h): per-request knobs — token
 *    budget, input seed.
 *
 * makeGemmConfig() is the single mapping from ExecOptions (+ the
 * model's LUT group size mu) to the kernel-level LutGemmConfig, so the
 * Engine and the hand-rolled test references cannot drift apart.
 */

#ifndef FIGLUT_RUNTIME_EXEC_OPTIONS_H
#define FIGLUT_RUNTIME_EXEC_OPTIONS_H

#include "common/status.h"
#include "core/lut_gemm.h"

namespace figlut {

/** Host execution of the GEMM kernels (core/lut_gemm.h knobs). */
struct ExecOptions
{
    /** Simd is bit-identical to Reference with the same closed-form
     *  counters, so the fast path is the default; dispatch degrades
     *  to the scalar table on non-SIMD hosts. */
    LutGemmBackend backend = LutGemmBackend::Simd;
    int threads = 0;    ///< workers, <= 0 = hardware concurrency
    int blockRows = 64; ///< rows per M-tile work item
    ActFormat actFormat = ActFormat::FP16;
    FpArith arith = FpArith::Fp32;
    bool preAligned = true; ///< FIGLUT-I integer path
    int alignFracBits = 24;

    /**
     * Row-shard every layer GEMM across this many worker groups
     * (shard/sharded_executor.h), each pinned to a NUMA node where
     * detected. <= 0 = auto: the FIGLUT_SHARDS env override when set
     * (mirroring FIGLUT_SIMD), else 1. Sharding is an execution
     * detail: outputs, KV, and counters are bit-identical to
     * shards=1 by construction, and 1 runs the regular unsharded
     * path with zero added overhead.
     */
    int shards = 0;
};

/** Upper bound on ExecOptions::shards (guards typo'd counts). */
inline constexpr int kMaxShards = 64;

/**
 * Resolve the shard-count knob: values >= 1 are taken as-is, <= 0
 * ("auto") reads FIGLUT_SHARDS once per process (unset/invalid = 1).
 * Both paths clamp to [1, kMaxShards].
 */
int resolveShardCount(int requested);

/** The kernel configuration these options select for LUT group size mu. */
LutGemmConfig makeGemmConfig(const ExecOptions &exec, int mu);

/**
 * Validate the execution knobs for LUT group size mu without running a
 * kernel: threads bound, blockRows positivity, mu range, hFFLUT
 * constraints, the pre-aligned alignFracBits range and its int64 bound
 * over scale groups of up to `groupColumns` columns — the same checks
 * lutGemm() enforces fatally, surfaced as a recoverable Status for the
 * serving construction paths.
 */
Status validateExecOptions(const ExecOptions &exec, int mu,
                           std::size_t groupColumns = 1);

} // namespace figlut

#endif // FIGLUT_RUNTIME_EXEC_OPTIONS_H
