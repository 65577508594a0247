/**
 * @file
 * The column-at-a-time decode attention that referenceChunkAttention
 * replaced, kept verbatim as the bit-identity oracle for the attention
 * tests: one scalar dot chain per (column, head, token), a softmax per
 * column (referenceSoftmaxInPlace below, plain loops), then the V
 * blend into a zeroed output, through the
 * bounds-checked MatrixD accessors. kv[b] is column b's full causal
 * view, oldest token first. snapshotColumnViews builds such views
 * over a KvCache's per-step snapshots.
 */

#ifndef FIGLUT_TESTS_RUNTIME_ATTENTION_ORACLE_H
#define FIGLUT_TESTS_RUNTIME_ATTENTION_ORACLE_H

#include <cmath>
#include <cstddef>
#include <vector>

#include "runtime/reference_ops.h"

namespace figlut {

/**
 * Numerically-stable softmax over v[0..n), in place: the max, then
 * v[i] = exp(v[i] - max) summed in order from 0, then v[i] / sum. The
 * oracle of the softmax SimdKernels::attentionHead runs on its scores.
 */
inline void
referenceSoftmaxInPlace(double *v, std::size_t n)
{
    if (n == 0)
        return;
    double mx = v[0];
    for (std::size_t i = 1; i < n; ++i)
        mx = mx < v[i] ? v[i] : mx;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::exp(v[i] - mx);
        sum += v[i];
    }
    for (std::size_t i = 0; i < n; ++i)
        v[i] = v[i] / sum;
}

inline MatrixD
perColumnAttentionOracle(const MatrixD &q,
                         const std::vector<std::vector<KvTokenRef>> &kv,
                         std::size_t heads)
{
    const std::size_t h = q.rows();
    const std::size_t batch = q.cols();
    const std::size_t headDim = h / heads;
    const double scale = 1.0 / std::sqrt(static_cast<double>(headDim));
    MatrixD out(h, batch, 0.0);
    std::vector<double> scores;
    for (std::size_t b = 0; b < batch; ++b) {
        const std::vector<KvTokenRef> &toks = kv[b];
        const std::size_t steps = toks.size();
        scores.resize(steps);
        for (std::size_t hd = 0; hd < heads; ++hd) {
            const std::size_t r0 = hd * headDim;
            for (std::size_t t = 0; t < steps; ++t) {
                double dot = 0.0;
                for (std::size_t d = 0; d < headDim; ++d)
                    dot += q(r0 + d, b) *
                           toks[t].k[(r0 + d) * toks[t].stride];
                scores[t] = dot * scale;
            }
            referenceSoftmaxInPlace(scores.data(), steps);
            for (std::size_t t = 0; t < steps; ++t) {
                const double p = scores[t];
                for (std::size_t d = 0; d < headDim; ++d)
                    out(r0 + d, b) +=
                        p * toks[t].v[(r0 + d) * toks[t].stride];
            }
        }
    }
    return out;
}

/**
 * Column `column` of per-step h x B K/V snapshots (a KvCache layer,
 * oldest first) as strided token views: element (r, column) of a
 * row-major snapshot is data()[r * B + column].
 */
inline std::vector<KvTokenRef>
snapshotColumnViews(const std::vector<MatrixD> &kSteps,
                    const std::vector<MatrixD> &vSteps, std::size_t column)
{
    std::vector<KvTokenRef> refs;
    for (std::size_t t = 0; t < kSteps.size(); ++t)
        refs.push_back(KvTokenRef{kSteps[t].data() + column,
                                  vSteps[t].data() + column,
                                  kSteps[t].cols()});
    return refs;
}

} // namespace figlut

#endif // FIGLUT_TESTS_RUNTIME_ATTENTION_ORACLE_H
