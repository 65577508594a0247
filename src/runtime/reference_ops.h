/**
 * @file
 * Reference (plain double) vector kernels of the numeric decode path.
 *
 * These are the non-GEMM operations a decoder layer executes around
 * the weight GEMMs: layer norm, KV-cache attention, GELU, residual
 * adds. The accelerator prices them as VPU op counts (sim/vpu.h); the
 * serve Engine executes them with these functions. They are plain
 * double-precision operations — deterministic and exactly reproducible
 * — so a hand-rolled per-layer reference can be compared bit-for-bit
 * against Engine output (the differential suite in
 * tests/serve/test_engine.cpp does exactly that). The elementwise
 * and reduction stages route through the runtime-dispatched SIMD
 * kernels of core/simd.h, whose bit-identity contract (fixed
 * kSimdReduceLanes-strided reduction order, identical per-element
 * arithmetic on every ISA) keeps results independent of the host CPU;
 * tests/runtime/test_reference_ops.cpp pins every ISA against the
 * scalar table.
 */

#ifndef FIGLUT_RUNTIME_REFERENCE_OPS_H
#define FIGLUT_RUNTIME_REFERENCE_OPS_H

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace figlut {

/**
 * LayerNorm over each column of x (one column = one token's hidden
 * state), unit gain and zero bias: (v - mean) / sqrt(var + eps) with
 * the population variance.
 */
MatrixD referenceLayerNorm(const MatrixD &x, double eps = 1e-5);

/**
 * GELU (tanh approximation, matching the VPU costing) elementwise:
 * kernelGelu (core/simd.h) on each element, run by the dispatched
 * SimdKernels::geluFlat, so the bits are the same on every ISA.
 */
MatrixD referenceGelu(const MatrixD &x);

/** Elementwise a + b; shapes must match. */
MatrixD referenceResidualAdd(const MatrixD &a, const MatrixD &b);

/**
 * One cached token's K/V as raw strided views — the storage-agnostic
 * attention input. Element d of K is k[d * stride] (likewise V):
 * stride 1 for the paged-arena slab layout, the snapshot width for a
 * column of an h x B KvCache matrix. Borrowed; the caller keeps the
 * backing storage alive for the duration of the attention call.
 */
struct KvTokenRef
{
    const double *k = nullptr;
    const double *v = nullptr;
    std::size_t stride = 1;
};

/**
 * One sequence's columns in a chunk-causal attention call: the
 * `columns` consecutive query columns starting at `firstColumn` all
 * read one token list of `tokenCount` tokens, oldest first. Column j
 * of the span (0-based) attends to the first
 * tokenCount - columns + j + 1 tokens, so the last column sees every
 * token: a decode step is a span of one column, and a C-column
 * prefill chunk over P tokens is one span whose columns see
 * P - C + 1 ... P tokens. The token refs are borrowed.
 */
struct AttentionSpan
{
    const KvTokenRef *tokens = nullptr;
    std::size_t tokenCount = 0;
    std::size_t firstColumn = 0;
    std::size_t columns = 0;
};

/**
 * Chunk-causal multi-head attention over spans: the arithmetic core
 * every attention entry point runs. Spans must list q's columns in
 * order, each column exactly once, with tokenCount >= columns and
 * non-null storage; anything else is fatal.
 *
 * Per column and head the arithmetic is fixed: each score is
 * dot = 0, dot += q[d] * k[d] for d = 0..headDim-1, times
 * 1/sqrt(headDim); the softmax over the column's causal prefix takes
 * the max, then p = kernelExp(s - max) summed in order from 0, then
 * p / sum;
 * each output element starts at 0 and adds p * v[d] in token order.
 * Only the loop order differs from a column-at-a-time walk. Each
 * (span, head) runs the dispatched SimdKernels::attentionHead: columns
 * go in blocks of kAttnBlockCols = 8 whose scores stay in an 8 x P
 * scratch, so each K row is read once per 8-column block (not once
 * per column), and the blend reads each V row once per 4-column
 * register tile. Every sum
 * keeps its order, so a column's result depends only on its own query
 * and causal prefix — bit-identical to the same column in a span of
 * one, on every ISA. Stride > 1 refs are staged into contiguous rows
 * first (a cold path; the paged arena's refs are stride 1).
 */
MatrixD referenceChunkAttention(const MatrixD &q,
                                const std::vector<AttentionSpan> &spans,
                                std::size_t heads);

/**
 * Ragged-batch decode attention over raw token views: kv[b] holds
 * column b's cached tokens, oldest first, so every column may have a
 * different context length. An adapter onto referenceChunkAttention:
 * column b + 1 joins column b's span when its view is column b's view
 * plus one token, compared ref by ref; otherwise it starts a span of
 * its own. Every column needs at least one token. A paged-arena read
 * (stride 1) is bit-identical to a read of the same doubles through
 * KvCache columns (stride = snapshot width).
 */
MatrixD
referenceDecodeAttention(const MatrixD &q,
                         const std::vector<std::vector<KvTokenRef>> &kv,
                         std::size_t heads);

} // namespace figlut

#endif // FIGLUT_RUNTIME_REFERENCE_OPS_H
