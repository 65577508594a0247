/**
 * @file
 * Functional LUT-based FP-INT GEMM (paper Section III-A/III-B).
 *
 * Computes Y = W X for a BCQ weight tensor W (M x N, q planes, group
 * scales, optional offset) and FP activations X (N x B):
 *
 *     y[m,b] = sum_g sum_i alpha_i[m,g] * (B_i[m,g] . x[g,b])
 *              + z[m,g] * sum(x[g,b])
 *
 * The inner binary dot products are executed by table look-ups: the
 * activations of each group are chunked into mu-element LUT groups, a
 * (half-)LUT is generated per chunk, and each (row, plane) pair reads
 * one value per chunk keyed by its weight pattern — the RAC operation.
 *
 * Two numerics paths mirror the two hardware variants:
 *  - FIGLUT-F: LUT entries and accumulation in FP (default FP32, the
 *    paper's accumulate precision).
 *  - FIGLUT-I: activations pre-aligned per group to integer mantissas;
 *    LUT entries, RAC reads and plane sums are exact integers; one FP
 *    multiply per (row, group, plane) restores the scale.
 */

#ifndef FIGLUT_CORE_LUT_GEMM_H
#define FIGLUT_CORE_LUT_GEMM_H

#include <cstdint>
#include <string>

#include "common/matrix.h"
#include "common/status.h"
#include "core/lut_generator.h"
#include "numerics/prealign.h"
#include "quant/bcq.h"
#include "quant/packing.h"

namespace figlut {

class ExecutionContext;

/**
 * Execution backend of the functional kernel: an oracle and a fast
 * path, like FIGLUT's single fixed datapath for every precision.
 * Reference is also the counting oracle: it increments
 * LutGemmCounters per generation and per read, while Simd adds the
 * closed form (addLutGemmClosedFormCounters) after its loops.
 *
 * Both backends produce bit-identical outputs: every output row
 * accumulates its (batch, group, plane) contributions in the same
 * order through the same emulated-FP operations, and LUT contents are
 * a deterministic function of the activations. They differ only in
 * traversal. Reference streams all M rows per (column, group) LUT set
 * on one thread, gathering each key from the weight planes. Simd
 * walks the batch in blocks of up to kSpanCols (core/simd.h) columns,
 * builds each column's LUT arenas exactly once, pre-packs (or reuses
 * pre-packed) per-(plane, chunk) key arrays, and streams blockRows-row
 * tiles, on `threads` workers. The integer path (FIGLUT-I) builds
 * each column's aligned mantissas and tables through the
 * runtime-dispatched column prologue of core/simd.h (prologueInt;
 * Reference keeps preAlignInto and LutGenerator as its oracle), and
 * reads the tables through the dispatched span kernels (AVX-512
 * register tables / AVX2 gathers / NEON lanes, or the portable scalar
 * table), walking each key span once per block with each key looked
 * up in every column's tables. Rows and columns are
 * independent lanes, so per-row accumulation order is unchanged. The
 * FP path (FIGLUT-F) walks the chunks with a scalar loop instead.
 */
enum class LutGemmBackend
{
    Reference, ///< single-threaded scalar loop (differential oracle)
    Simd,      ///< packed keys + column-block LUT arenas + span kernels
};

/**
 * Stable numeric code for JSON records ("gemm_backend" fields):
 * Reference 0, Simd 3. Codes 1 and 2 belonged to retired backends and
 * are not reused.
 */
int lutGemmBackendCode(LutGemmBackend backend);

/** Lower-case name ("reference", "simd"). */
const char *lutGemmBackendName(LutGemmBackend backend);

/** Parse a backend name as printed by lutGemmBackendName(). */
bool parseLutGemmBackend(const std::string &name, LutGemmBackend *out);

/** Configuration of the functional LUT-GEMM kernel. */
struct LutGemmConfig
{
    int mu = 4;                            ///< LUT group size
    ActFormat actFormat = ActFormat::FP16; ///< activation storage format
    FpArith arith = FpArith::Fp32;         ///< FP adder/accum precision
    bool preAligned = false;               ///< FIGLUT-I integer path
    int alignFracBits = 24;                ///< aligned mantissa fraction
    bool useHalfLut = true;                ///< hFFLUT + decoder
    bool useGeneratorTree = true;          ///< tree generator vs direct

    LutGemmBackend backend = LutGemmBackend::Reference;
    int threads = 0;   ///< Simd: workers, <= 0 = hardware
    int blockRows = 64;///< Simd: rows per work item (M-tile)
};

/** Upper bound on LutGemmConfig::threads (guards typo'd counts). */
inline constexpr int kMaxLutGemmThreads = 1024;

/**
 * Validate the kernel knobs: mu in [1, kMaxMu], hFFLUT needs mu >= 2,
 * the pre-aligned path needs alignFracBits in [kMinAlignFracBits,
 * kMaxAlignFracBits], the Simd backend needs blockRows >= 1, threads
 * <= kMaxLutGemmThreads. One check depends on the shape: aligned
 * mantissas reach 2^(alignFracBits + 1), so the LUT entries and plane
 * sums of a scale group of `groupColumns` columns stay inside int64
 * only while alignFracBits + 1 + ceil(log2(groupColumns)) <= 62 (the
 * default, one column, never trips it). lutGemm() enforces exactly
 * these checks fatally per call, with its tensor's widest group; the
 * serve Engine uses the Status form at construction, with its model's
 * widest GEMM input, so a serving loop can reject a bad configuration
 * without dying. Messages state the violated bound.
 */
Status validateLutGemmConfig(const LutGemmConfig &config,
                             std::size_t groupColumns = 1);

/**
 * Operation counters filled in by the kernel (drive energy models).
 *
 * Every count is identical across backends (both build each
 * (column, chunk) LUT exactly once): Reference's per-read counts and
 * Simd's closed form agree exactly.
 */
struct LutGemmCounters
{
    uint64_t lutGenerations = 0; ///< LUTs built (per chunk, batch, plane reuse excluded)
    uint64_t generatorAdds = 0;  ///< adds spent inside generators
    uint64_t lutReads = 0;       ///< RAC table reads
    uint64_t racAccumulates = 0; ///< RAC accumulate operations
    uint64_t scaleMuls = 0;      ///< alpha multiplies
    uint64_t offsetOps = 0;      ///< offset multiply-adds (VPU)

    LutGemmCounters &
    operator+=(const LutGemmCounters &o)
    {
        lutGenerations += o.lutGenerations;
        generatorAdds += o.generatorAdds;
        lutReads += o.lutReads;
        racAccumulates += o.racAccumulates;
        scaleMuls += o.scaleMuls;
        offsetOps += o.offsetOps;
        return *this;
    }

    bool
    operator==(const LutGemmCounters &o) const
    {
        return lutGenerations == o.lutGenerations &&
               generatorAdds == o.generatorAdds && lutReads == o.lutReads &&
               racAccumulates == o.racAccumulates &&
               scaleMuls == o.scaleMuls && offsetOps == o.offsetOps;
    }

    bool operator!=(const LutGemmCounters &o) const { return !(*this == o); }
};

/**
 * Accumulate the closed-form operation counts of one lutGemm(weights,
 * x, config) call with a B-column activation matrix into `counters`,
 * without running the kernel. This is the exact accounting the Simd
 * backend applies after its loops: an analytic function of the tensor
 * shape and the group/chunk geometry, equal to the Reference backend's
 * per-read counts.
 *
 * The shard layer uses it to keep counters execution-invariant: a
 * row-sharded run would otherwise rebuild each (column, group) LUT
 * set once per shard, inflating lutGenerations/generatorAdds by the
 * shard count. ShardedExecutor discards the per-shard counts and adds
 * this full-tensor closed form exactly once, so counters are
 * bit-identical to the unsharded call by construction.
 */
void addLutGemmClosedFormCounters(const BcqTensor &weights,
                                  const LutGemmConfig &config,
                                  std::size_t batch,
                                  LutGemmCounters &counters);

/**
 * Run the LUT-GEMM kernel.
 *
 * @param weights  BCQ tensor, M x N
 * @param x        activations, N x B (column b is one input vector)
 * @param config   kernel configuration
 * @param counters optional op counters (accumulated, not reset)
 * @param ctx      optional long-lived execution resources
 *                 (core/execution_context.h). With a context, the
 *                 Simd backend runs on its persistent ThreadPool
 *                 and reuse its scratch/arena workspace across calls;
 *                 without one, pool and scratch are constructed per
 *                 call. A Simd call that resolves to one worker
 *                 (threads = 1, or M <= blockRows) runs its row tiles
 *                 on the calling thread and uses no pool at all.
 *                 Outputs are identical either way. A context must
 *                 not be shared by concurrent callers.
 * @return         output matrix, M x B (doubles holding format values)
 */
MatrixD lutGemm(const BcqTensor &weights, const MatrixD &x,
                const LutGemmConfig &config,
                LutGemmCounters *counters = nullptr,
                ExecutionContext *ctx = nullptr);

/**
 * Run the LUT-GEMM kernel with pre-packed weight keys (Simd backend
 * only). packed must come from packLutKeys(weights, config.mu); the
 * pre-packing is validated against the tensor's shape. Use this for
 * repeated-inference scenarios: keys depend only on the weights, so
 * packing once amortizes the layout pass across every call (pair it
 * with an ExecutionContext to also amortize workers and arenas).
 */
MatrixD lutGemm(const BcqTensor &weights, const MatrixD &x,
                const LutGemmConfig &config, const PackedLutKeys &packed,
                LutGemmCounters *counters = nullptr,
                ExecutionContext *ctx = nullptr);

} // namespace figlut

#endif // FIGLUT_CORE_LUT_GEMM_H
