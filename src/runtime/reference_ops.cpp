#include "runtime/reference_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "core/simd.h"

namespace figlut {

MatrixD
referenceLayerNorm(const MatrixD &x, double eps)
{
    const std::size_t h = x.rows();
    const std::size_t batch = x.cols();
    if (h == 0)
        fatal("layer norm needs a non-empty input");
    const SimdKernels &k = simdKernels();
    MatrixD out(h, batch);
    // Columns of the row-major h x B matrix are strided; stage each
    // one contiguously so the flat kernels apply. The reductions use
    // the fixed kSimdReduceLanes-strided order on every ISA, so the
    // result does not depend on which table is active.
    std::vector<double> col(h), norm(h);
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t r = 0; r < h; ++r)
            col[r] = x(r, b);
        const double mean = k.sumLanes(col.data(), h) /
                            static_cast<double>(h);
        const double var = k.sumSqDevLanes(col.data(), mean, h) /
                           static_cast<double>(h);
        const double inv = 1.0 / std::sqrt(var + eps);
        k.normalizeFlat(norm.data(), col.data(), mean, inv, h);
        for (std::size_t r = 0; r < h; ++r)
            out(r, b) = norm[r];
    }
    return out;
}

MatrixD
referenceGelu(const MatrixD &x)
{
    MatrixD out(x.rows(), x.cols());
    simdKernels().geluFlat(out.data(), x.data(), x.size());
    return out;
}

MatrixD
referenceResidualAdd(const MatrixD &a, const MatrixD &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        fatal("residual add shape mismatch: ", a.rows(), "x", a.cols(),
              " vs ", b.rows(), "x", b.cols());
    MatrixD out(a.rows(), a.cols());
    simdKernels().addFlat(out.data(), a.data(), b.data(), a.size());
    return out;
}

namespace {

/**
 * Per-thread buffers of referenceChunkAttention, grown to the largest
 * call seen and reused, so a steady stream of attention calls does
 * not allocate.
 */
struct AttentionScratch
{
    std::vector<double> scores;       // kAttnBlockCols x tokens
    std::vector<const double *> k, v; // one head's row per token
    std::vector<double> rows;         // strided refs' rows, [k | v]
};

template <typename T>
void
growTo(std::vector<T> &v, std::size_t n)
{
    if (v.size() < n)
        v.resize(n);
}

} // namespace

MatrixD
referenceChunkAttention(const MatrixD &q,
                        const std::vector<AttentionSpan> &spans,
                        std::size_t heads)
{
    const std::size_t h = q.rows();
    const std::size_t width = q.cols();
    if (heads == 0 || h % heads != 0)
        fatal("attention needs hidden divisible by heads, got ", h,
              " / ", heads);
    std::size_t covered = 0;
    for (std::size_t s = 0; s < spans.size(); ++s) {
        const AttentionSpan &span = spans[s];
        if (span.firstColumn != covered)
            fatal("attention span ", s, " starts at column ",
                  span.firstColumn, ", expected ", covered,
                  " (spans must cover the query columns in order, "
                  "each once)");
        if (span.columns == 0)
            fatal("attention span ", s, " has no columns");
        if (span.columns > width - covered)
            fatal("attention span ", s, " runs past the ", width,
                  " query columns");
        if (span.tokenCount < span.columns)
            fatal("attention span ", s, " has ", span.tokenCount,
                  " tokens for ", span.columns,
                  " columns; each column needs its own token");
        if (span.tokens == nullptr)
            fatal("attention span ", s, " has no token refs");
        for (std::size_t t = 0; t < span.tokenCount; ++t)
            if (span.tokens[t].k == nullptr ||
                span.tokens[t].v == nullptr)
                fatal("attention span ", s, " token ", t,
                      " has null storage");
        covered += span.columns;
    }
    if (covered != width)
        fatal("attention spans cover ", covered, " of ", width,
              " query columns");

    const std::size_t headDim = h / heads;
    const SimdKernels &kern = simdKernels();
    MatrixD out(h, width);
    thread_local AttentionScratch scratch;
    AttentionHead head;
    head.qStride = width;
    head.headDim = headDim;
    head.scale = 1.0 / std::sqrt(static_cast<double>(headDim));
    head.outStride = width;
    for (const AttentionSpan &span : spans) {
        const std::size_t P = span.tokenCount;
        growTo(scratch.scores, kAttnBlockCols * P);
        growTo(scratch.k, P);
        growTo(scratch.v, P);
        head.k = scratch.k.data();
        head.v = scratch.v.data();
        head.tokens = P;
        head.columns = span.columns;
        head.scores = scratch.scores.data();
        // The kernel reads contiguous rows. Arena refs already are;
        // KvCache-style strided refs (a cold path) are staged into
        // [k | v] rows of h doubles first.
        const KvTokenRef *tokens = span.tokens;
        bool strided = false;
        for (std::size_t t = 0; t < P; ++t)
            strided = strided || tokens[t].stride != 1;
        if (strided)
            growTo(scratch.rows, 2 * h * P);
        for (std::size_t hd = 0; hd < heads; ++hd) {
            const std::size_t r0 = hd * headDim;
            for (std::size_t t = 0; t < P; ++t) {
                const KvTokenRef &tok = tokens[t];
                if (tok.stride == 1) {
                    scratch.k[t] = tok.k + r0;
                    scratch.v[t] = tok.v + r0;
                    continue;
                }
                double *k = scratch.rows.data() + 2 * h * t;
                double *v = k + h;
                if (hd == 0)
                    for (std::size_t r = 0; r < h; ++r) {
                        k[r] = tok.k[r * tok.stride];
                        v[r] = tok.v[r * tok.stride];
                    }
                scratch.k[t] = k + r0;
                scratch.v[t] = v + r0;
            }
            head.q = q.data() + r0 * width + span.firstColumn;
            head.out = out.data() + r0 * width + span.firstColumn;
            kern.attentionHead(head);
        }
    }
    return out;
}

MatrixD
referenceDecodeAttention(const MatrixD &q,
                         const std::vector<std::vector<KvTokenRef>> &kv,
                         std::size_t heads)
{
    const std::size_t batch = q.cols();
    if (kv.size() != batch)
        fatal("attention needs one KV history per query column, got ",
              kv.size(), " for ", batch);

    // Column b joins the previous column's span when its view extends
    // that view by exactly one token; a span's token list is its last
    // column's view, of which every earlier column's view is a prefix.
    const auto sameRef = [](const KvTokenRef &x, const KvTokenRef &y) {
        return x.k == y.k && x.v == y.v && x.stride == y.stride;
    };
    std::vector<AttentionSpan> spans;
    for (std::size_t b = 0; b < batch; ++b) {
        const std::vector<KvTokenRef> &view = kv[b];
        if (b > 0 && view.size() == kv[b - 1].size() + 1 &&
            std::equal(kv[b - 1].begin(), kv[b - 1].end(), view.begin(),
                       sameRef)) {
            AttentionSpan &span = spans.back();
            span.tokens = view.data();
            span.tokenCount = view.size();
            span.columns += 1;
            continue;
        }
        spans.push_back(AttentionSpan{view.data(), view.size(), b, 1});
    }
    return referenceChunkAttention(q, spans, heads);
}

} // namespace figlut
