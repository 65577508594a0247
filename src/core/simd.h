/**
 * @file
 * Runtime-dispatched SIMD kernels for the LUT-GEMM hot loops and the
 * reference vector stage.
 *
 * The Simd LUT-GEMM backend and the vectorized reference_ops paths do
 * not branch on the ISA themselves: they fetch a SimdKernels table
 * once per call and invoke function pointers. The table is selected
 * at runtime from what the binary was compiled with (compile-time
 * guards: the AVX2/AVX-512/NEON translation units are only built when
 * CMake enables them) intersected with what the host CPU executes (CPUID /
 * mandatory-NEON detection), optionally narrowed by the FIGLUT_SIMD
 * environment variable or the programmatic override below.
 *
 * Where each table's entries come from: simd.cpp's scalar table is
 * plain loops (plus the attention body at the baseline ISA). The
 * AVX2, AVX-512 and NEON tables write only their int64 span kernels
 * (accumIntSpan, accumIntSpanCols) in intrinsics; every other entry
 * is one generic-vector body compiled per unit at its native width:
 * core/vector_kernels.h for the column prologue, the folds, addFlat,
 * sumLanes, sumSqDevLanes, normalizeFlat and geluFlat, and
 * core/attention_kernel.h for attentionHead. The two transcendentals,
 * exp (in the attention softmax and in GELU) and GELU itself, are the
 * repo's own (kernelExp and kernelGelu below), so no entry's bits
 * depend on the platform libm.
 *
 * Bit-identity contract: every kernel's per-element arithmetic and
 * accumulation order is fixed by the scalar implementation in
 * simd.cpp, and each ISA implementation reproduces it exactly —
 * vector lanes only evaluate independent elements (or the fixed
 * kSimdReduceLanes-strided partial sums) in the same order, with the
 * same IEEE-754 double operations and the same round-to-binary32 step
 * where the contract calls for one. The build disables FP contraction
 * (-ffp-contract=off) so no path fuses a multiply-add the others
 * split. The differential suites in tests/core/test_simd_gemm.cpp and
 * tests/runtime/test_reference_ops.cpp pin every ISA against the
 * scalar table, and tests/core/test_vector_kernels.cpp pins the 2-lane
 * body NEON compiles on every host.
 */

#ifndef FIGLUT_CORE_SIMD_H
#define FIGLUT_CORE_SIMD_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "numerics/prealign.h"

namespace figlut {

/** Instruction sets a SimdKernels table can be implemented with. */
enum class SimdIsa
{
    Scalar, ///< portable C++ (the bit-identity reference)
    Avx2,   ///< x86-64 AVX2 gather kernels
    Neon,   ///< aarch64 NEON kernels
    Avx512, ///< x86-64 AVX-512F register-resident LUT span kernels
};

/** Stable numeric code for JSON records ("simd_isa" fields). */
int simdIsaCode(SimdIsa isa);

/** Lower-case name ("scalar", "avx2", "neon", "avx512"). */
const char *simdIsaName(SimdIsa isa);

/** Parse a name as accepted by FIGLUT_SIMD ("auto" is not an ISA). */
bool parseSimdIsa(const std::string &name, SimdIsa *out);

/** True when this binary contains kernels for the ISA. */
bool simdIsaCompiled(SimdIsa isa);

/** True when the ISA is compiled in AND the host CPU executes it. */
bool simdIsaSupported(SimdIsa isa);

/** Best supported ISA, ignoring every override. */
SimdIsa detectSimdIsa();

/**
 * The ISA the dispatcher will actually use: the programmatic override
 * if one is set, else the FIGLUT_SIMD environment variable
 * (scalar|avx2|avx512|neon|auto, read once), else detectSimdIsa()
 * (which prefers AVX-512 over AVX2). Requests
 * for an unsupported ISA are clamped down to Scalar — dispatch can
 * never select code the binary lacks or the CPU rejects, which is
 * what keeps the scalar fallback a guarantee rather than a
 * convention.
 */
SimdIsa activeSimdIsa();

/**
 * Force the dispatcher to an ISA (clamped to supported ones; returns
 * the ISA actually selected). Takes precedence over FIGLUT_SIMD.
 * Intended for tests and benchmarks that compare ISAs in-process; not
 * thread-safe against concurrently running kernels.
 */
SimdIsa setSimdIsaOverride(SimdIsa isa);

/** Drop the programmatic override (environment selection returns). */
void clearSimdIsaOverride();

/** Logical lanes of the fixed strided-reduction contract. */
inline constexpr std::size_t kSimdReduceLanes = 4;

/**
 * Most activation columns one accumIntSpanCols call walks. At mu = 4
 * the AVX-512 kernel holds 4 key vectors plus, per column, a 2-zmm
 * table and 4 accumulators: 28 of the 32 zmm registers. Eight columns
 * would spill.
 */
inline constexpr std::size_t kSpanCols = 4;

/** Query columns whose scores one attentionHead block computes. */
inline constexpr std::size_t kAttnBlockCols = 8;

/**
 * One head of one chunk-causal attention span: `columns` query
 * columns over `tokens` cached tokens, column j attending to the
 * first tokens - columns + j + 1 of them (runtime/reference_ops.h).
 * Element d of column j's query is q[d * qStride + j] and of its
 * output out[d * outStride + j]; token t's key and value for this
 * head are the headDim contiguous doubles at k[t] and v[t]. `scores`
 * is scratch for kAttnBlockCols * tokens doubles; the kernel reads
 * and writes nothing else.
 */
struct AttentionHead
{
    const double *q = nullptr;
    std::size_t qStride = 0;
    const double *const *k = nullptr;
    const double *const *v = nullptr;
    std::size_t tokens = 0;
    std::size_t columns = 0;
    std::size_t headDim = 0;
    double scale = 0.0;
    double *scores = nullptr;
    double *out = nullptr;
    std::size_t outStride = 0;
};

/**
 * One scale group of one FIGLUT-I activation column, the input of
 * SimdKernels::prologueInt: `count` activations x[0], x[stride], ...
 * (a column of the N x B activation matrix has stride B), aligned to
 * `fracBits` fraction bits in `format` and cut into chunks =
 * ceil(count / mu) mu-element LUT chunks. mant and lut are the
 * caller's outputs.
 */
struct IntPrologueGroup
{
    const double *x = nullptr;
    std::size_t count = 0;
    std::size_t stride = 1;
    ActFormat format = ActFormat::FP16;
    int fracBits = 24;
    int mu = 4;
    /** chunks * mu aligned mantissas, zero past count. */
    std::int64_t *mant = nullptr;
    /** chunks decoded tables, chunk c's 2^mu entries at c * 2^mu. */
    std::int64_t *lut = nullptr;
};

/** What prologueInt returns besides its two arrays. */
struct IntPrologueResult
{
    AlignHeader align;        ///< preAlignInto's block header
    std::int64_t mantSum = 0; ///< sum of the group's mantissas
};

/**
 * The dispatch table. All kernels follow the scalar implementations
 * bit for bit (see the file comment); `n` may be any length including
 * 0 — ISA implementations handle the sub-vector tail with the scalar
 * ops in the contract's order.
 */
struct SimdKernels
{
    SimdIsa isa = SimdIsa::Scalar;

    /**
     * The FIGLUT-I column prologue of one scale group (see
     * IntPrologueGroup), the pre-alignment unit and the LUT generator
     * in one call. Bit for bit it is the scalar table's:
     *
     *   align   = preAlignInto(x, count, stride, format, fracBits,
     *                          NearestEven, mant), mant zero-padded
     *             to whole chunks;
     *   lut     = each chunk's table from LutGenerator's tree fill
     *             (generateFullIntInto; direct enumeration at mu = 1);
     *   mantSum = the sum of the mantissas.
     *
     * Every table entry, sum_j (bit_j(key) ? m_j : -m_j), and the sum
     * are exact int64 sums, so any evaluation order gives the same
     * bits as long as none leaves int64: the caller keeps fracBits +
     * 1 + ceil(log2(count)) <= 62 (validateLutGemmConfig). The integer
     * table does not depend on LutGemmConfig's useHalfLut or
     * useGeneratorTree. Non-finite activations after rounding, and
     * fracBits outside [kMinAlignFracBits, kMaxAlignFracBits], are
     * fatal, as in preAlignInto.
     */
    IntPrologueResult (*prologueInt)(const IntPrologueGroup &group);

    /**
     * The FIGLUT-I RAC accumulate over one group's whole chunk span,
     * with exact int64 adds. For every row r < n, chunks are walked in
     * order with the partial sum held in a register:
     *
     *   psum[r] += lut[c * lutStride + keys[c * keyStride + r]]
     *   for c = 0, 1, ..., chunks-1
     *
     * Spanning all chunks per call — rather than one kernel call per
     * chunk — is what lets every ISA keep the accumulator out of
     * memory for the whole walk; per-row accumulation order is
     * chunk-sequential either way, so outputs cannot differ.
     */
    void (*accumIntSpan)(std::int64_t *psum, const std::int64_t *lut,
                         std::size_t lutStride,
                         const std::uint32_t *keys,
                         std::size_t keyStride, std::size_t chunks,
                         std::size_t n);

    /**
     * accumIntSpan over a block of 1 <= cols <= kSpanCols activation
     * columns that share the weight keys: column j accumulates into
     * psum[j] from its own tables lut[j] (same lutStride), and its
     * result is bit-identical to accumIntSpan(psum[j], lut[j], ...).
     * Loading each key once for every column of the block is the
     * point: FIGLUT's fetched weight pattern drives one read per
     * column instead of one fetch per column. ISAs without a blocked
     * kernel run accumIntSpan once per column.
     */
    void (*accumIntSpanCols)(std::int64_t *const *psum,
                             const std::int64_t *const *lut,
                             std::size_t lutStride,
                             const std::uint32_t *keys,
                             std::size_t keyStride, std::size_t chunks,
                             std::size_t n, std::size_t cols);

    /**
     * The LUT-GEMM epilogue in FpArith::Fp32: each integer-domain
     * plane's partial sum scaled by its alpha, then the offset term
     * (either domain), folded into the row accumulators. With f32(v)
     * the binary32 round-trip and double() the static_cast conversion,
     * for every row r < n:
     *
     *   foldIntPlaneFp32: acc[r] = f32(acc[r] + f32(alpha[r] *
     *                              (double(psum[r]) * scale)))
     *   foldOffsetFp32:   acc[r] = f32(acc[r] + f32(off[r] * sumx))
     *
     * the fpAdd(acc, fpRound(...)) chain of the scalar epilogue. Each
     * row is one lane and sees exactly these operations in this order,
     * so every ISA produces the same bits.
     */
    void (*foldIntPlaneFp32)(double *acc, const double *alpha,
                             const std::int64_t *psum, double scale,
                             std::size_t n);
    void (*foldOffsetFp32)(double *acc, const double *off, double sumx,
                           std::size_t n);

    /** out[i] = a[i] + b[i]. */
    void (*addFlat)(double *out, const double *a, const double *b,
                    std::size_t n);

    /**
     * Sum of v[0..n) in the fixed kSimdReduceLanes-strided order:
     * lane l accumulates v[l], v[l + 4], ... sequentially, and the
     * lanes combine as ((l0 + l1) + l2) + l3. Same value on every
     * ISA by construction.
     */
    double (*sumLanes)(const double *v, std::size_t n);

    /** Sum of (v[i] - mean)^2 in the same strided-lane order. */
    double (*sumSqDevLanes)(const double *v, double mean, std::size_t n);

    /** out[i] = (v[i] - mean) * invStd. */
    void (*normalizeFlat)(double *out, const double *v, double mean,
                          double invStd, std::size_t n);

    /** out[i] = kernelGelu(v[i]), each element one lane. */
    void (*geluFlat)(double *out, const double *v, std::size_t n);

    /**
     * Chunk-causal attention over one head of one span (see
     * AttentionHead). Per column the arithmetic is fixed: each score
     * is dot = 0, dot += q[d] * k[d] for d = 0..headDim-1, times
     * scale; the softmax over the column's causal prefix takes the
     * max, replaces each score s by kernelExp(s - max) while summing
     * them sequentially from 0, then divides each by the sum; each
     * output element starts at 0 and adds p * v[d] in token order.
     * Columns run in blocks of kAttnBlockCols whose scores stay in
     * the scratch, and vector lanes only hold independent columns or
     * tokens, so every ISA produces the scalar table's bits.
     */
    void (*attentionHead)(const AttentionHead &head);
};

/**
 * The deterministic exp every table evaluates, lane by lane, in the
 * attention softmax and in GELU: a Cody-Waite reduction by ln 2, a
 * degree-13 polynomial and an exact 2^k scale, in IEEE double
 * operations only (core/vector_kernels.h), so its bits are the same on
 * every ISA, compiler and libc. Within 2 ulp of e^x wherever that is
 * a normal double (x in [-708.39, 709.78]); subnormal results round
 * from the same polynomial; 0 below about -745.13, +inf above about
 * 709.78, NaN returns itself, exp(+-0) = 1. DESIGN.md states the
 * measured error.
 */
double kernelExp(double x);

/**
 * GELU, tanh approximation, as x / (1 + kernelExp(-2 sqrt(2/pi) (x +
 * 0.044715 x^3))): the same function as 0.5 x (1 + tanh(sqrt(2/pi)
 * (x + 0.044715 x^3))) without its cancellation for negative x.
 * gelu(+-0) = +-0, large positive x returns x, large negative x
 * returns -0, NaN returns itself.
 */
double kernelGelu(double x);

/** Kernels of the active ISA (see activeSimdIsa()). */
const SimdKernels &simdKernels();

/**
 * Kernels of a specific ISA; falls back to the scalar table when the
 * ISA is not supported in this binary/host.
 */
const SimdKernels &simdKernelsFor(SimdIsa isa);

} // namespace figlut

#endif // FIGLUT_CORE_SIMD_H
