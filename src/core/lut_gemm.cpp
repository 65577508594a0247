#include "core/lut_gemm.h"

#include <algorithm>
#include <array>
#include <optional>

#include "common/logging.h"
#include "core/execution_context.h"
#include "core/parallel.h"
#include "core/simd.h"

namespace figlut {

namespace {

/** Column range, chunk count, and flat chunk base of one scale group. */
struct GroupGeom
{
    std::size_t c0 = 0;       ///< first column
    std::size_t c1 = 0;       ///< one past last column
    std::size_t chunks = 0;   ///< mu-chunks in the group (tail padded)
    std::size_t chunkBase = 0;///< first global chunk index
};

/**
 * Flat LUT arena: contiguous chunk slabs with a fixed 2^mu stride.
 * Every slab stores the *decoded* full table — in half-LUT mode the
 * hFFLUT sign decode is applied once per entry at build time — so the
 * hot loop's read is a single branch-free index. The buffer is grown
 * once and reused across (batch, group) iterations instead of
 * reallocating per group.
 */
template <typename T>
struct LutArena
{
    std::vector<T> values;
    std::size_t stride = 0;

    void
    ensure(std::size_t chunks, std::size_t entryStride)
    {
        stride = entryStride;
        if (values.size() < chunks * entryStride)
            values.resize(chunks * entryStride);
    }

    T *chunk(std::size_t ch) { return values.data() + ch * stride; }
    const T *
    chunk(std::size_t ch) const
    {
        return values.data() + ch * stride;
    }
};

/**
 * Reusable per-worker scratch: the Reference backend's group arenas,
 * the mu-element chunk staging slots, the integer path's aligned
 * mantissas, and the Simd backend's tile accumulators. One Scratch
 * lives per worker thread (or per Reference call) so nothing here is
 * shared; reuse keeps the hot loops allocation-free.
 */
struct Scratch
{
    LutArena<double> fp;           ///< FP group arena
    LutArena<int64_t> ig;          ///< integer group arena
    std::vector<double> xs;        ///< mu activation slots of one chunk
    std::vector<int64_t> mant;     ///< group mantissas, whole chunks
    std::vector<double> fpPsum;    ///< row tile: per-row plane sums
    std::vector<int64_t> intPsum;  ///< row tile: integer plane sums
    std::vector<double> rowAcc;    ///< row tile: per-row group accum
    std::vector<double> alphaCol;  ///< row tile: staged alpha column
    std::vector<double> offCol;    ///< row tile: staged offset column
    double sumx = 0.0;             ///< group sum(x) for the offset term
    int64_t sumMant = 0;           ///< integer-path mantissa sum
    double scale = 1.0;            ///< integer-path shared scale
};

/**
 * Simd-backend per-column tables: the LUT arenas of every chunk of one
 * activation column (indexed by global chunk), plus the per-group
 * VPU-side terms. Built exactly once per (batch column), kSpanCols
 * columns at a time, and then read by every row tile.
 */
struct FpColumnTables
{
    LutArena<double> arena;
    std::vector<double> sumx; ///< per group
};

struct IntColumnTables
{
    LutArena<int64_t> arena;
    std::vector<int64_t> sumMant; ///< per group
    std::vector<double> scale;    ///< per group
};

/**
 * Everything one lutGemm call reuses across its (batch, group) and
 * column iterations: the submitting thread's scratch plus the Simd
 * backend's tables for one block of up to kSpanCols columns. Owned per
 * call by default, or across calls by an ExecutionContext so the
 * arenas stop being reallocated under repeated traffic.
 */
struct CallWorkspace
{
    Scratch scratch;
    std::array<FpColumnTables, kSpanCols> fp;
    std::array<IntColumnTables, kSpanCols> ig;
};

/** Activation columns [first, first + count) of one Simd block. */
struct ColumnBlock
{
    std::size_t first = 0;
    std::size_t count = 0;
};

/** Key for (row, plane) over the chunk starting at c0 (tail padded 1). */
uint32_t
chunkKey(const BcqTensor &w, int plane, std::size_t r, std::size_t c0,
         std::size_t c_end, int mu)
{
    uint32_t key = 0;
    for (int j = 0; j < mu; ++j) {
        const std::size_t c = c0 + static_cast<std::size_t>(j);
        // Padding columns pair a zero activation with weight +1, which
        // contributes exactly zero in both FP and integer domains.
        const uint32_t bit =
            c < c_end
                ? w.planes[static_cast<std::size_t>(plane)](r, c)
                : 1u;
        key = (key << 1) | bit;
    }
    return key;
}

/**
 * Column g of a per-(row, group) weight matrix (alphas, offsets) over
 * the tile's rows: a pointer into the matrix when it has one group, so
 * the column is contiguous, else the column staged into buf.
 */
const double *
tileColumn(const MatrixD &a, BlockRange rows, std::size_t g,
           std::vector<double> &buf)
{
    const std::size_t stride = a.cols();
    const double *col = a.data() + rows.begin * stride + g;
    if (stride == 1)
        return col;
    buf.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r)
        buf[r] = col[r * stride];
    return buf.data();
}

/**
 * Shared kernel state for both backends. Reference executes
 * processRows(): per (column, group) it builds the LUT arena, then
 * gathers each row's keys from the weight planes. Simd instead reads
 * pre-packed [plane][chunk][row] key arrays and per-column LUT arenas
 * built once, via accumulateTile*().
 *
 * Bit-identity across backends holds because each output element
 * y(r, b) is touched only by the work item owning row r, and its
 * accumulation order (columns, then groups, then planes/chunks) and
 * every intermediate value are independent of the traversal: LUT
 * arena entries equal the (half-)LUT decoded reads of the Reference
 * tables entry for entry.
 *
 * Reference is the counting oracle: processRows() increments the
 * counters per generation and per read. The Simd tile loops never
 * touch counters; the caller adds the closed-form totals afterwards.
 */
class LutGemmKernel
{
  public:
    LutGemmKernel(const BcqTensor &weights, const MatrixD &x,
                  const LutGemmConfig &config)
        : w_(weights), x_(x), config_(config)
    {
        if (config_.useGeneratorTree && config_.mu >= 2)
            generator_.emplace(config_.mu, config_.arith);
        addsPerGeneration_ =
            generator_
                ? generator_->stats().treeAdds
                : static_cast<uint64_t>(lutEntries(config_.mu)) *
                      static_cast<uint64_t>(config_.mu - 1);

        // Group geometry, hoisted out of every per-(batch, group) and
        // per-row loop: computed once per kernel.
        const std::size_t groups = w_.groupsPerRow();
        geom_.reserve(groups);
        std::size_t base = 0;
        for (std::size_t g = 0; g < groups; ++g) {
            GroupGeom gg;
            gg.c0 = g * w_.groupSize;
            gg.c1 = std::min(w_.cols, gg.c0 + w_.groupSize);
            gg.chunks = (gg.c1 - gg.c0 +
                         static_cast<std::size_t>(config_.mu) - 1) /
                        static_cast<std::size_t>(config_.mu);
            gg.chunkBase = base;
            base += gg.chunks;
            geom_.push_back(gg);
        }
        totalChunks_ = base;
    }

    std::size_t groups() const { return geom_.size(); }
    std::size_t totalChunks() const { return totalChunks_; }
    uint64_t addsPerGeneration() const { return addsPerGeneration_; }

    void
    processRows(BlockRange rows, MatrixD &y, LutGemmCounters &total,
                Scratch &s) const
    {
        // Counted into a local the compiler keeps in registers: the
        // caller's counters could alias the uint8_t weight-plane
        // reads, which would force a store per increment.
        LutGemmCounters cnt;
        const std::size_t batch = x_.cols();
        for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t g = 0; g < geom_.size(); ++g) {
                const GroupGeom &gg = geom_[g];
                if (!config_.preAligned) {
                    buildFpGroup(b, gg, s, cnt);
                    accumulateFp(rows, b, g, gg, s, y, cnt);
                } else {
                    buildIntGroup(b, gg, s, cnt);
                    accumulateInt(rows, b, g, gg, s, y, cnt);
                }
            }
        }
        total += cnt;
    }

    /** Build all LUT arenas + VPU terms of activation column b. */
    void
    buildFpColumn(std::size_t b, FpColumnTables &t, Scratch &s) const
    {
        t.arena.ensure(totalChunks_, lutEntries(config_.mu));
        t.sumx.assign(geom_.size(), 0.0);
        for (std::size_t g = 0; g < geom_.size(); ++g) {
            const GroupGeom &gg = geom_[g];
            for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                loadChunkValues(b, gg, ch, s.xs);
                fillFpChunk(s.xs.data(), t.arena.chunk(gg.chunkBase + ch));
            }
            if (w_.hasOffset)
                t.sumx[g] = groupSum(b, gg);
        }
    }

    /**
     * buildFpColumn for the integer path: each group's prologue
     * (alignment, tables and mantissa sum) is one call of the kernel
     * table's prologueInt, straight out of x's storage. Its tables
     * equal fillIntChunk's under every useHalfLut and
     * useGeneratorTree, since each entry is an exact sum.
     */
    void
    buildIntColumn(std::size_t b, IntColumnTables &t, Scratch &s,
                   const SimdKernels &simd) const
    {
        t.arena.ensure(totalChunks_, lutEntries(config_.mu));
        t.sumMant.resize(geom_.size());
        t.scale.resize(geom_.size());
        const std::size_t stride = x_.cols();
        for (std::size_t g = 0; g < geom_.size(); ++g) {
            const GroupGeom &gg = geom_[g];
            s.mant.resize(gg.chunks * static_cast<std::size_t>(config_.mu));
            IntPrologueGroup group;
            group.x = x_.data() + gg.c0 * stride + b;
            group.count = gg.c1 - gg.c0;
            group.stride = stride;
            group.format = config_.actFormat;
            group.fracBits = config_.alignFracBits;
            group.mu = config_.mu;
            group.mant = s.mant.data();
            group.lut = t.arena.chunk(gg.chunkBase);
            const IntPrologueResult r = simd.prologueInt(group);
            t.scale[g] = alignScale(r.align.sharedExp, config_.alignFracBits);
            t.sumMant[g] = r.mantSum;
        }
    }

    /**
     * Accumulate one row tile of a block of activation columns, whose
     * tables are t[0..block.count): per (group, plane), walk the
     * group's chunks over the tile's pre-packed keys, then fold alpha,
     * the offset term and y. `simd` is the call's kernel table:
     * accumulateTileInt's chunk walk is its span kernel, and in
     * FpArith::Fp32 the offset fold (and accumulateTileInt's alpha
     * fold) is its epilogue kernel (core/simd.h). Everything else runs
     * the scalar loops. Rows and columns are independent lanes of
     * every kernel, so each element's operation sequence is the scalar
     * loop's, and per-row operation order is the Reference backend's
     * (chunks, then planes, then offset, then the y fold, per column):
     * outputs are bit-identical.
     *
     * The FP path (FIGLUT-F) runs its columns one after another, each
     * through the scalar chunk walk; the integer path walks each key
     * span once for the whole block (accumIntSpanCols).
     */
    void
    accumulateTileFp(BlockRange rows, ColumnBlock block,
                     const PackedLutKeys &pk, const FpColumnTables *t,
                     const SimdKernels &simd, MatrixD &y, Scratch &s) const
    {
        const int q = w_.bits;
        const FpArith arith = config_.arith;
        const bool fold = arith == FpArith::Fp32;
        const std::size_t tile = rows.size();
        s.fpPsum.resize(tile);
        s.rowAcc.resize(tile);
        double *psum = s.fpPsum.data();
        double *acc = s.rowAcc.data();
        for (std::size_t j = 0; j < block.count; ++j) {
            const FpColumnTables &tj = t[j];
            for (std::size_t g = 0; g < geom_.size(); ++g) {
                const GroupGeom &gg = geom_[g];
                std::fill(acc, acc + tile, 0.0);
                for (int i = 0; i < q; ++i) {
                    std::fill(psum, psum + tile, 0.0);
                    for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                        const std::size_t chunk = gg.chunkBase + ch;
                        const uint32_t *keys =
                            pk.chunkKeys(i, chunk) + rows.begin;
                        const double *lut = tj.arena.chunk(chunk);
                        for (std::size_t r = 0; r < tile; ++r)
                            psum[r] = fpAdd(psum[r], lut[keys[r]], arith);
                    }
                    const double *alpha = tileColumn(
                        w_.alphas[static_cast<std::size_t>(i)], rows, g,
                        s.alphaCol);
                    for (std::size_t r = 0; r < tile; ++r)
                        acc[r] = fpAdd(acc[r],
                                       fpRound(alpha[r] * psum[r], arith),
                                       arith);
                }
                if (w_.hasOffset)
                    foldOffset(tileColumn(w_.offsets, rows, g, s.offCol),
                               tile, tj.sumx[g], fold ? &simd : nullptr,
                               acc);
                foldIntoY(rows, block.first + j, acc, y);
            }
        }
    }

    /** The integer-domain tile accumulate (FIGLUT-I); see above. */
    void
    accumulateTileInt(BlockRange rows, ColumnBlock block,
                      const PackedLutKeys &pk, const IntColumnTables *t,
                      const SimdKernels &simd, MatrixD &y, Scratch &s) const
    {
        const int q = w_.bits;
        const FpArith arith = config_.arith;
        const bool fold = arith == FpArith::Fp32;
        const std::size_t tile = rows.size();
        const std::size_t cols = block.count;
        s.intPsum.resize(cols * tile);
        s.rowAcc.resize(cols * tile);
        // Column j's plane sums and group accumulators.
        int64_t *psum[kSpanCols] = {};
        double *acc[kSpanCols] = {};
        const int64_t *lut[kSpanCols] = {};
        for (std::size_t j = 0; j < cols; ++j) {
            psum[j] = s.intPsum.data() + j * tile;
            acc[j] = s.rowAcc.data() + j * tile;
        }
        for (std::size_t g = 0; g < geom_.size(); ++g) {
            const GroupGeom &gg = geom_[g];
            for (std::size_t j = 0; j < cols; ++j) {
                std::fill(acc[j], acc[j] + tile, 0.0);
                lut[j] = t[j].arena.chunk(gg.chunkBase);
            }
            for (int i = 0; i < q; ++i) {
                std::fill(psum[0], psum[0] + cols * tile, int64_t{0});
                const uint32_t *keys =
                    pk.chunkKeys(i, gg.chunkBase) + rows.begin;
                // One walk of the plane's keys serves every column of
                // the block.
                simd.accumIntSpanCols(psum, lut, t[0].arena.stride, keys,
                                      pk.rows, gg.chunks, tile, cols);
                const double *alpha = tileColumn(
                    w_.alphas[static_cast<std::size_t>(i)], rows, g,
                    s.alphaCol);
                for (std::size_t j = 0; j < cols; ++j) {
                    const double scale = t[j].scale[g];
                    if (fold) {
                        simd.foldIntPlaneFp32(acc[j], alpha, psum[j], scale,
                                              tile);
                        continue;
                    }
                    for (std::size_t r = 0; r < tile; ++r)
                        acc[j][r] = fpAdd(
                            acc[j][r],
                            fpRound(alpha[r] *
                                        (static_cast<double>(psum[j][r]) *
                                         scale),
                                    arith),
                            arith);
                }
            }
            const double *off =
                w_.hasOffset ? tileColumn(w_.offsets, rows, g, s.offCol)
                             : nullptr;
            for (std::size_t j = 0; j < cols; ++j) {
                if (off)
                    foldOffset(off, tile,
                               static_cast<double>(t[j].sumMant[g]) *
                                   t[j].scale[g],
                               fold ? &simd : nullptr, acc[j]);
                foldIntoY(rows, block.first + j, acc[j], y);
            }
        }
    }

  private:
    /**
     * acc[r] += off[r] * sumx over the tile's n rows, the offset term
     * of one group (off: the group's offsets, staged by tileColumn):
     * the fold kernel of `simd` when one is given (FpArith::Fp32
     * only), else the scalar loop.
     */
    void
    foldOffset(const double *off, std::size_t n, double sumx,
               const SimdKernels *simd, double *acc) const
    {
        if (simd) {
            simd->foldOffsetFp32(acc, off, sumx, n);
            return;
        }
        for (std::size_t r = 0; r < n; ++r)
            acc[r] = fpAdd(acc[r], fpRound(off[r] * sumx, config_.arith),
                           config_.arith);
    }

    /** y(rows, b) += acc in the accumulate mode, on y's raw storage. */
    void
    foldIntoY(BlockRange rows, std::size_t b, const double *acc,
              MatrixD &y) const
    {
        const std::size_t stride = y.cols();
        double *col = y.data() + rows.begin * stride + b;
        for (std::size_t r = 0; r < rows.size(); ++r)
            col[r * stride] = fpAdd(col[r * stride], acc[r], config_.arith);
    }

    /** sum(x) over group gg of column b in the accumulate mode. */
    double
    groupSum(std::size_t b, const GroupGeom &gg) const
    {
        double sx = 0.0;
        for (std::size_t c = gg.c0; c < gg.c1; ++c)
            sx = fpAdd(sx, x_(c, b), config_.arith);
        return sx;
    }

    /** Stage the padded mu-chunk of activations into s (reused). */
    void
    loadChunkValues(std::size_t b, const GroupGeom &gg, std::size_t ch,
                    std::vector<double> &xs) const
    {
        const int mu = config_.mu;
        xs.resize(static_cast<std::size_t>(mu));
        const std::size_t cBase =
            gg.c0 + ch * static_cast<std::size_t>(mu);
        for (int j = 0; j < mu; ++j) {
            const std::size_t c = cBase + static_cast<std::size_t>(j);
            xs[static_cast<std::size_t>(j)] =
                c < gg.c1 ? x_(c, b) : 0.0;
        }
    }

    /**
     * Pre-align group gg of activation column b (integer path) into
     * s.mant, zero-padded to whole chunks, straight from x's storage:
     * each activation is rounded to its format exactly once, here.
     * Returns the group's scale 2^(sharedExp - fracBits).
     */
    double
    alignGroup(std::size_t b, const GroupGeom &gg, Scratch &s) const
    {
        const std::size_t count = gg.c1 - gg.c0;
        const std::size_t stride = x_.cols();
        s.mant.resize(gg.chunks * static_cast<std::size_t>(config_.mu));
        const AlignHeader header = preAlignInto(
            x_.data() + gg.c0 * stride + b, count, stride,
            config_.actFormat, config_.alignFracBits,
            AlignRounding::NearestEven, s.mant.data());
        std::fill(s.mant.begin() + static_cast<std::ptrdiff_t>(count),
                  s.mant.end(), int64_t{0});
        return alignScale(header.sharedExp, config_.alignFracBits);
    }

    /** The mu mantissas of chunk ch of the group alignGroup() staged. */
    const int64_t *
    chunkMantissas(const Scratch &s, std::size_t ch) const
    {
        return s.mant.data() + ch * static_cast<std::size_t>(config_.mu);
    }

    /** Sum of the staged group's mantissas (the offset's sum(x)). */
    static int64_t
    mantissaSum(const Scratch &s)
    {
        int64_t sum = 0;
        for (const int64_t m : s.mant)
            sum += m;
        return sum;
    }

    /**
     * Fill one arena slab with the decoded full table for the chunk:
     * generator tree order when enabled, else direct enumeration with
     * the hFFLUT decode applied at build time in half-LUT mode. The
     * slab is bit-identical to the corresponding (half-)LUT reads.
     */
    void
    fillFpChunk(const double *xs, double *out) const
    {
        if (generator_) {
            generator_->generateFullInto(xs, out);
            return;
        }
        LutD::buildDirectInto(xs, config_.mu, config_.arith, out);
        if (config_.useHalfLut)
            expandHalfDecodeInPlace(out, config_.mu);
    }

    void
    fillIntChunk(const int64_t *ms, int64_t *out) const
    {
        if (generator_) {
            generator_->generateFullIntInto(ms, out);
            return;
        }
        LutI::buildDirectInto(ms, config_.mu, out);
        if (config_.useHalfLut)
            expandHalfDecodeInPlace(out, config_.mu);
    }

    void
    buildFpGroup(std::size_t b, const GroupGeom &gg, Scratch &s,
                 LutGemmCounters &cnt) const
    {
        s.fp.ensure(gg.chunks, lutEntries(config_.mu));
        for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
            loadChunkValues(b, gg, ch, s.xs);
            fillFpChunk(s.xs.data(), s.fp.chunk(ch));
            // Accumulated after the generation it accounts for: the
            // counters always reflect completed builds.
            ++cnt.lutGenerations;
            cnt.generatorAdds += addsPerGeneration_;
        }
        // Offset needs sum(x) over the group (VPU side).
        s.sumx = w_.hasOffset ? groupSum(b, gg) : 0.0;
    }

    void
    buildIntGroup(std::size_t b, const GroupGeom &gg, Scratch &s,
                  LutGemmCounters &cnt) const
    {
        s.scale = alignGroup(b, gg, s);
        s.ig.ensure(gg.chunks, lutEntries(config_.mu));
        for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
            fillIntChunk(chunkMantissas(s, ch), s.ig.chunk(ch));
            ++cnt.lutGenerations;
            cnt.generatorAdds += addsPerGeneration_;
        }
        s.sumMant = w_.hasOffset ? mantissaSum(s) : 0;
    }

    void
    accumulateFp(BlockRange rows, std::size_t b, std::size_t g,
                 const GroupGeom &gg, const Scratch &s, MatrixD &y,
                 LutGemmCounters &cnt) const
    {
        const int mu = config_.mu;
        const int q = w_.bits;
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            double row_acc = 0.0;
            for (int i = 0; i < q; ++i) {
                double psum = 0.0;
                for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                    const uint32_t key =
                        chunkKey(w_, i, r, gg.c0 + ch * mu, gg.c1, mu);
                    psum = fpAdd(psum, s.fp.chunk(ch)[key],
                                 config_.arith);
                    ++cnt.lutReads;
                    ++cnt.racAccumulates;
                }
                const double alpha =
                    w_.alphas[static_cast<std::size_t>(i)](r, g);
                row_acc = fpAdd(row_acc,
                                fpRound(alpha * psum, config_.arith),
                                config_.arith);
                ++cnt.scaleMuls;
            }
            if (w_.hasOffset) {
                row_acc = fpAdd(
                    row_acc,
                    fpRound(w_.offsets(r, g) * s.sumx, config_.arith),
                    config_.arith);
                ++cnt.offsetOps;
            }
            y(r, b) = fpAdd(y(r, b), row_acc, config_.arith);
        }
    }

    void
    accumulateInt(BlockRange rows, std::size_t b, std::size_t g,
                  const GroupGeom &gg, const Scratch &s, MatrixD &y,
                  LutGemmCounters &cnt) const
    {
        const int mu = config_.mu;
        const int q = w_.bits;
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            double row_acc = 0.0;
            for (int i = 0; i < q; ++i) {
                int64_t psum = 0;
                for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                    const uint32_t key =
                        chunkKey(w_, i, r, gg.c0 + ch * mu, gg.c1, mu);
                    psum += s.ig.chunk(ch)[key];
                    ++cnt.lutReads;
                    ++cnt.racAccumulates;
                }
                const double alpha =
                    w_.alphas[static_cast<std::size_t>(i)](r, g);
                row_acc = fpAdd(
                    row_acc,
                    fpRound(alpha * (static_cast<double>(psum) *
                                     s.scale),
                            config_.arith),
                    config_.arith);
                ++cnt.scaleMuls;
            }
            if (w_.hasOffset) {
                const double sumx =
                    static_cast<double>(s.sumMant) * s.scale;
                row_acc = fpAdd(
                    row_acc,
                    fpRound(w_.offsets(r, g) * sumx, config_.arith),
                    config_.arith);
                ++cnt.offsetOps;
            }
            y(r, b) = fpAdd(y(r, b), row_acc, config_.arith);
        }
    }

    const BcqTensor &w_;
    /**
     * Activations: rounded to their storage format on the FP path;
     * raw on the integer path, whose alignment rounds them.
     */
    const MatrixD &x_;
    const LutGemmConfig &config_;
    std::optional<LutGenerator> generator_;
    uint64_t addsPerGeneration_ = 0;
    std::vector<GroupGeom> geom_;
    std::size_t totalChunks_ = 0;
};

/** Resolve the worker count, clamped to the number of row blocks. */
int
resolveWorkers(const LutGemmConfig &config, std::size_t m)
{
    const std::size_t blocks =
        (m + static_cast<std::size_t>(config.blockRows) - 1) /
        static_cast<std::size_t>(config.blockRows);
    return static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(resolveThreadCount(config.threads)),
        std::max<std::size_t>(blocks, 1)));
}

/**
 * Runs the row tiles of one Simd-backend call. When a single worker
 * would run them (threads = 1, or m fits one tile) the tiles run in
 * order on the calling thread and no pool is acquired: handing them to
 * a one-worker pool would only add a queue round trip per dispatch.
 * Otherwise the tiles go to the context's persistent pool when one is
 * supplied, else to a per-call pool. The per-call default is
 * deliberate for context-free callers: wait() and the captured first
 * exception are pool-global, so sharing a static pool between
 * concurrent lutGemm callers would entangle their completion and
 * error states (an ExecutionContext makes that single-client contract
 * explicit). The per-call pool clamps workers to the block count —
 * surplus threads would only idle-spin their spawn cost away — while
 * the context pool is sized by the thread knob alone so its size stays
 * stable across calls of different heights. Either way each tile
 * computes the same elements in the same order, so where the tiles
 * run never changes a result.
 */
class RowTiles
{
  public:
    RowTiles(ExecutionContext *ctx, const LutGemmConfig &config,
             std::size_t m)
        : m_(m), blockRows_(static_cast<std::size_t>(config.blockRows))
    {
        const int workers = resolveWorkers(config, m);
        if (workers == 1)
            return;
        if (ctx) {
            pool_ = &ctx->pool(config.threads);
        } else {
            local_.emplace(workers);
            pool_ = &*local_;
        }
    }

    template <typename Fn>
    void
    run(const Fn &fn)
    {
        if (pool_) {
            pool_->parallelForBlocked(m_, blockRows_, fn);
            return;
        }
        for (std::size_t begin = 0; begin < m_; begin += blockRows_)
            fn(BlockRange{begin, std::min(m_, begin + blockRows_)});
    }

  private:
    std::size_t m_;
    std::size_t blockRows_;
    std::optional<ThreadPool> local_;
    ThreadPool *pool_ = nullptr;
};

/** Per-call workspace, or the context's persistent one. */
CallWorkspace &
acquireWorkspace(ExecutionContext *ctx,
                 std::optional<CallWorkspace> &local)
{
    if (ctx)
        return ctx->workspace<CallWorkspace>();
    local.emplace();
    return *local;
}

/**
 * The Simd backend's runner. It walks the batch in blocks of up to
 * kSpanCols columns. Each block's LUT arenas are built exactly once,
 * on the submitting thread; every row tile then only reads them, and
 * walks each of its key spans once for the whole block. With a pool,
 * the tiles of one block end in one barrier. The kernel table is
 * resolved once per call, on the submitting thread, and shared
 * read-only by the workers. Nothing here counts operations: the caller
 * adds the closed form.
 */
void
runSimdTiles(const LutGemmKernel &kernel, const PackedLutKeys &pk,
             const LutGemmConfig &config, std::size_t m,
             std::size_t batch, MatrixD &y, ExecutionContext *ctx)
{
    const SimdKernels &simd = simdKernels();
    RowTiles tiles(ctx, config, m);
    std::optional<CallWorkspace> localWs;
    CallWorkspace &ws = acquireWorkspace(ctx, localWs);
    for (std::size_t first = 0; first < batch; first += kSpanCols) {
        const ColumnBlock block{first,
                                std::min(kSpanCols, batch - first)};
        for (std::size_t j = 0; j < block.count; ++j) {
            if (!config.preAligned)
                kernel.buildFpColumn(first + j, ws.fp[j], ws.scratch);
            else
                kernel.buildIntColumn(first + j, ws.ig[j], ws.scratch,
                                      simd);
        }
        tiles.run([&, block](BlockRange rows) {
            // Rows partition the output: no two tiles share an element
            // of y.
            static thread_local Scratch s;
            if (!config.preAligned)
                kernel.accumulateTileFp(rows, block, pk, ws.fp.data(),
                                        simd, y, s);
            else
                kernel.accumulateTileInt(rows, block, pk, ws.ig.data(),
                                         simd, y, s);
        });
    }
}

/**
 * Closed-form operation counts: every counter is an exact function of
 * the shapes and the chunk geometry, so the Simd backend derives
 * them after the loops instead of paying per-read increments. The
 * differential tests prove these equal the Reference backend's
 * per-read counts. The
 * math lives in the public addLutGemmClosedFormCounters() so the
 * shard layer can apply the identical accounting without a kernel;
 * the kernel's independently-derived geometry cross-checks it here.
 */
void
addClosedFormCounters(const BcqTensor &w, const LutGemmConfig &config,
                      std::size_t m, std::size_t batch,
                      const LutGemmKernel &kernel, LutGemmCounters &cnt)
{
    FIGLUT_ASSERT(m == w.rows, "closed-form counters row mismatch");
    LutGemmCounters before = cnt;
    addLutGemmClosedFormCounters(w, config, batch, cnt);
    // The standalone form recomputes the chunk geometry; a divergence
    // from the kernel's would silently skew every downstream energy
    // model, so re-derive one term and compare.
    const uint64_t reads = static_cast<uint64_t>(m) *
                           static_cast<uint64_t>(w.bits) *
                           static_cast<uint64_t>(kernel.totalChunks()) *
                           static_cast<uint64_t>(batch);
    FIGLUT_ASSERT(cnt.lutReads - before.lutReads == reads,
                  "closed-form counters disagree with kernel geometry");
}

MatrixD
lutGemmImpl(const BcqTensor &weights, const MatrixD &x,
            const LutGemmConfig &config, const PackedLutKeys *prepacked,
            LutGemmCounters *counters, ExecutionContext *ctx)
{
    if (const Status s = validateLutGemmConfig(
            config, std::min(weights.groupSize, weights.cols));
        !s.ok())
        fatal(s.message());
    if (x.rows() != weights.cols)
        fatal("LUT-GEMM shape mismatch: weights are ", weights.rows, "x",
              weights.cols, " but activations have ", x.rows(), " rows");
    if (prepacked) {
        if (config.backend != LutGemmBackend::Simd)
            fatal("pre-packed LUT keys require the Simd backend");
        if (prepacked->mu != config.mu ||
            prepacked->rows != weights.rows ||
            prepacked->cols != weights.cols ||
            prepacked->bits != weights.bits ||
            prepacked->groupSize != weights.groupSize)
            fatal("pre-packed LUT keys do not match the weights/config: ",
                  "packed (mu=", prepacked->mu, ", ", prepacked->rows,
                  "x", prepacked->cols, ", q=", prepacked->bits,
                  ", group=", prepacked->groupSize, ") vs (mu=",
                  config.mu, ", ", weights.rows, "x", weights.cols,
                  ", q=", weights.bits, ", group=", weights.groupSize,
                  ")");
    }

    const std::size_t m = weights.rows;
    const std::size_t n = weights.cols;
    const std::size_t batch = x.cols();

    LutGemmCounters local;
    LutGemmCounters &cnt = counters ? *counters : local;

    // The FP path reads activations in their storage format, shared by
    // every work item. The integer path reads x itself: alignment
    // rounds each activation exactly once.
    MatrixD xq;
    if (!config.preAligned) {
        xq = MatrixD(n, batch);
        for (std::size_t i = 0; i < xq.size(); ++i)
            xq.data()[i] = quantizeToFormat(x.data()[i], config.actFormat);
    }
    const LutGemmKernel kernel(weights, config.preAligned ? x : xq, config);
    MatrixD y(m, batch, 0.0);

    // Geometry cross-check: the packing pass derives the chunk layout
    // independently of the kernel, and a divergence would silently
    // misindex the arenas — fail loudly instead.
    if (prepacked && (prepacked->totalChunks != kernel.totalChunks() ||
                      prepacked->groups != kernel.groups()))
        fatal("pre-packed LUT keys disagree with the kernel chunk ",
              "geometry: packed ", prepacked->groups, " groups / ",
              prepacked->totalChunks, " chunks vs kernel ",
              kernel.groups(), " groups / ", kernel.totalChunks());

    switch (config.backend) {
      case LutGemmBackend::Reference: {
          std::optional<CallWorkspace> localWs;
          Scratch &s = acquireWorkspace(ctx, localWs).scratch;
          kernel.processRows(BlockRange{0, m}, y, cnt, s);
          break;
      }
      case LutGemmBackend::Simd: {
          PackedLutKeys localPack;
          const PackedLutKeys *pk = prepacked;
          if (!pk) {
              localPack = packLutKeys(weights, config.mu);
              pk = &localPack;
          }
          runSimdTiles(kernel, *pk, config, m, batch, y, ctx);
          addClosedFormCounters(weights, config, m, batch, kernel, cnt);
          break;
      }
    }
    return y;
}

} // namespace

int
lutGemmBackendCode(LutGemmBackend backend)
{
    switch (backend) {
      case LutGemmBackend::Reference: return 0;
      case LutGemmBackend::Simd: return 3;
    }
    return 0;
}

const char *
lutGemmBackendName(LutGemmBackend backend)
{
    switch (backend) {
      case LutGemmBackend::Reference: return "reference";
      case LutGemmBackend::Simd: return "simd";
    }
    return "reference";
}

bool
parseLutGemmBackend(const std::string &name, LutGemmBackend *out)
{
    if (name == "reference")
        *out = LutGemmBackend::Reference;
    else if (name == "simd")
        *out = LutGemmBackend::Simd;
    else
        return false;
    return true;
}

Status
validateLutGemmConfig(const LutGemmConfig &config, std::size_t groupColumns)
{
    if (config.mu < 1 || config.mu > kMaxMu)
        return Status::invalidArgument("LUT-GEMM mu must be in [1, ",
                                       kMaxMu, "], got ", config.mu);
    if (config.useHalfLut && config.mu < 2)
        return Status::invalidArgument(
            "hFFLUT requires mu >= 2 (mu=1 tables have no half); ",
            "raise mu (or, calling lutGemm directly, set ",
            "LutGemmConfig::useHalfLut = false)");
    if (config.preAligned && (config.alignFracBits < kMinAlignFracBits ||
                              config.alignFracBits > kMaxAlignFracBits))
        return Status::invalidArgument(
            "LUT-GEMM alignFracBits must be in [", kMinAlignFracBits, ", ",
            kMaxAlignFracBits, "] on the pre-aligned path, got ",
            config.alignFracBits);
    if (config.preAligned) {
        int groupBits = 0; // ceil(log2(groupColumns))
        while ((std::size_t{1} << groupBits) < groupColumns)
            ++groupBits;
        if (config.alignFracBits + 1 + groupBits > 62)
            return Status::invalidArgument(
                "LUT-GEMM alignFracBits ", config.alignFracBits,
                " overflows int64 over a ", groupColumns,
                "-column scale group: mantissas reach 2^",
                config.alignFracBits + 1, ", so alignFracBits + 1 + ",
                "ceil(log2(group columns)) must be <= 62; lower ",
                "alignFracBits to ", 61 - groupBits, " or narrow the group");
    }
    if (config.backend == LutGemmBackend::Simd && config.blockRows < 1)
        return Status::invalidArgument(
            "LUT-GEMM Simd backend needs blockRows >= 1, got ",
            config.blockRows);
    if (config.threads > kMaxLutGemmThreads)
        return Status::invalidArgument(
            "LUT-GEMM threads must be <= ", kMaxLutGemmThreads,
            ", got ", config.threads, " (<= 0 selects the hardware ",
            "concurrency)");
    return Status::okStatus();
}

void
addLutGemmClosedFormCounters(const BcqTensor &weights,
                             const LutGemmConfig &config,
                             std::size_t batch,
                             LutGemmCounters &counters)
{
    // Chunk geometry, identical to the LutGemmKernel constructor: per
    // group, columns [c0, c1) split into ceil((c1 - c0) / mu) chunks.
    const std::size_t groups = weights.groupsPerRow();
    std::size_t totalChunks = 0;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t c0 = g * weights.groupSize;
        const std::size_t c1 =
            std::min(weights.cols, c0 + weights.groupSize);
        totalChunks +=
            (c1 - c0 + static_cast<std::size_t>(config.mu) - 1) /
            static_cast<std::size_t>(config.mu);
    }
    const uint64_t addsPerGeneration =
        (config.useGeneratorTree && config.mu >= 2)
            ? lutGeneratorAdderCount(config.mu).treeAdds
            : static_cast<uint64_t>(lutEntries(config.mu)) *
                  static_cast<uint64_t>(config.mu - 1);

    const auto rows64 = static_cast<uint64_t>(weights.rows);
    const auto batch64 = static_cast<uint64_t>(batch);
    const auto chunks64 = static_cast<uint64_t>(totalChunks);
    const auto groups64 = static_cast<uint64_t>(groups);
    const auto bits64 = static_cast<uint64_t>(weights.bits);

    // Both backends build each (batch, chunk) table exactly once.
    const uint64_t builds = batch64 * chunks64;
    counters.lutGenerations += builds;
    counters.generatorAdds += builds * addsPerGeneration;

    const uint64_t reads = rows64 * bits64 * chunks64 * batch64;
    counters.lutReads += reads;
    counters.racAccumulates += reads;
    counters.scaleMuls += rows64 * bits64 * groups64 * batch64;
    if (weights.hasOffset)
        counters.offsetOps += rows64 * groups64 * batch64;
}

MatrixD
lutGemm(const BcqTensor &weights, const MatrixD &x,
        const LutGemmConfig &config, LutGemmCounters *counters,
        ExecutionContext *ctx)
{
    return lutGemmImpl(weights, x, config, nullptr, counters, ctx);
}

MatrixD
lutGemm(const BcqTensor &weights, const MatrixD &x,
        const LutGemmConfig &config, const PackedLutKeys &packed,
        LutGemmCounters *counters, ExecutionContext *ctx)
{
    return lutGemmImpl(weights, x, config, &packed, counters, ctx);
}

} // namespace figlut
