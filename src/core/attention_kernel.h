/**
 * @file
 * The body of SimdKernels::attentionHead, compiled once per ISA: each
 * kernel unit (simd.cpp, simd_avx2.cpp, simd_avx512.cpp, simd_neon.cpp)
 * includes this header under its own target flags and points its
 * table's entry at attentionHeadBody. It is written in the native
 * vectors of core/vector_kernels.h. Internal to those units.
 *
 * Everything here has internal linkage, and the body calls no inline
 * library template, so the per-ISA copies can never be merged at link
 * time (a merged copy could run AVX-512 code on a baseline host).
 *
 * Loop order, per block of up to kAttnBlockCols columns:
 *  - scores: a full block puts its 8 columns in vector lanes and
 *    walks the tokens, kScoreTokens at a time; a narrower block (a
 *    decode span's single column, a chunk's last columns) puts tokens
 *    in the lanes, reading K through the per-token row pointers, and
 *    walks the columns. The block's scores stay in the 8 x tokens
 *    scratch, so they stay in cache.
 *  - softmax per column, over its causal prefix.
 *  - blend, 4 columns at a time: a 4-column x kBlendDims accumulator
 *    tile stays in registers while V rows stream past; the causal
 *    tail tokens are added only to the columns that see them.
 *
 * Bit identity: vector lanes only ever hold independent columns or
 * tokens, every sum runs in the scalar contract's order, and the
 * build disables FP contraction, so each ISA's copy computes exactly
 * the scalar table's doubles.
 */

#ifndef FIGLUT_CORE_ATTENTION_KERNEL_H
#define FIGLUT_CORE_ATTENTION_KERNEL_H

#include <cstddef>

#include "core/simd.h"
#include "core/vector_kernels.h"

namespace figlut {
namespace simd_detail {
namespace {

/**
 * Tile shapes per native width. A blend tile holds 4 columns x
 * kBlendDims accumulators: 16 of the 32 zmm on AVX-512, and all 16 ymm
 * on AVX2, where it measured faster than an 8-register tile despite
 * the spills (each V row streams past half as often). A score group
 * holds kScoreTokens x 8 columns.
 */
constexpr std::size_t kBlendDims = kLanes == 8 ? 32 : kLanes == 4 ? 16 : 4;
constexpr std::size_t kScoreTokens = kLanes >= 4 ? 4 : 2;

/** Vectors one full block's row of 8 column scores fills. */
constexpr std::size_t kBlockVecs = kAttnBlockCols / kLanes;
static_assert(kBlockVecs * kLanes == kAttnBlockCols,
              "a block row is whole vectors");

/** Columns of one blend tile. */
constexpr std::size_t kBlendCols = 4;

/**
 * A full block's scores: columns j0..j0+7 in lanes, tokens [0, n)
 * walked kScoreTokens at a time. Token t's 8 scores land at
 * scores[t * 8 + u]; lane u is only meaningful for the tokens column
 * j0 + u sees, and the softmax and blend read no others.
 */
template <std::size_t HeadDim>
void
scoreColumnLanes(const AttentionHead &a, std::size_t j0, std::size_t n)
{
    const std::size_t hd = HeadDim != 0 ? HeadDim : a.headDim;
    const double *q = a.q + j0;
    std::size_t t = 0;
    for (; t + kScoreTokens <= n; t += kScoreTokens) {
        const double *k[kScoreTokens];
        Vec dot[kScoreTokens][kBlockVecs];
        for (std::size_t i = 0; i < kScoreTokens; ++i) {
            k[i] = a.k[t + i];
            for (std::size_t b = 0; b < kBlockVecs; ++b)
                dot[i][b] = Vec{};
        }
        for (std::size_t d = 0; d < hd; ++d) {
            const double *qd = q + d * a.qStride;
            Vec qv[kBlockVecs];
            for (std::size_t b = 0; b < kBlockVecs; ++b)
                qv[b] = FIGLUT_VEC_LOAD(qd + b * kLanes);
            for (std::size_t i = 0; i < kScoreTokens; ++i) {
                const double kd = k[i][d];
                for (std::size_t b = 0; b < kBlockVecs; ++b)
                    dot[i][b] = dot[i][b] + qv[b] * kd;
            }
        }
        for (std::size_t i = 0; i < kScoreTokens; ++i)
            for (std::size_t b = 0; b < kBlockVecs; ++b)
                FIGLUT_VEC_AT(a.scores + (t + i) * kAttnBlockCols +
                              b * kLanes) = dot[i][b] * a.scale;
    }
    for (; t < n; ++t) {
        const double *k = a.k[t];
        Vec dot[kBlockVecs];
        for (std::size_t b = 0; b < kBlockVecs; ++b)
            dot[b] = Vec{};
        for (std::size_t d = 0; d < hd; ++d)
            for (std::size_t b = 0; b < kBlockVecs; ++b)
                dot[b] = dot[b] +
                         FIGLUT_VEC_LOAD(q + d * a.qStride + b * kLanes) *
                             k[d];
        for (std::size_t b = 0; b < kBlockVecs; ++b)
            FIGLUT_VEC_AT(a.scores + t * kAttnBlockCols + b * kLanes) =
                dot[b] * a.scale;
    }
}

/**
 * A narrow block's scores: W < 8 columns starting at j0, tokens
 * [0, n) in lanes, each key vector built once from the token row
 * pointers and used for every column. Column j's scores are the
 * contiguous row scores[j * n .. j * n + n).
 */
template <std::size_t HeadDim, std::size_t W>
void
scoreTokenLanes(const AttentionHead &a, std::size_t j0, std::size_t n)
{
    const std::size_t hd = HeadDim != 0 ? HeadDim : a.headDim;
    const double *q = a.q + j0;
    double *s = a.scores;
    std::size_t t = 0;
    for (; t + kLanes <= n; t += kLanes) {
        const double *k[kLanes];
        for (std::size_t u = 0; u < kLanes; ++u)
            k[u] = a.k[t + u];
        Vec dot[W];
        for (std::size_t j = 0; j < W; ++j)
            dot[j] = Vec{};
        for (std::size_t d = 0; d < hd; ++d) {
            Vec kd = Vec{};
            for (std::size_t u = 0; u < kLanes; ++u)
                kd[u] = k[u][d];
            const double *qd = q + d * a.qStride;
            for (std::size_t j = 0; j < W; ++j)
                dot[j] = dot[j] + kd * qd[j];
        }
        for (std::size_t j = 0; j < W; ++j)
            FIGLUT_VEC_AT(s + j * n + t) = dot[j] * a.scale;
    }
    for (; t < n; ++t) {
        const double *k = a.k[t];
        for (std::size_t j = 0; j < W; ++j) {
            double dot = 0.0;
            for (std::size_t d = 0; d < hd; ++d)
                dot += q[d * a.qStride + j] * k[d];
            s[j * n + t] = dot * a.scale;
        }
    }
}

/**
 * Softmax of a full block's 8 columns, lanes = columns: column u's
 * scores are scores[t * 8 + u] for its n0 + u tokens, so tokens below
 * n0 run as whole vectors and the last 7 per lane. The max is the
 * sequential fold; exp runs on whole vectors and, on the causal tail,
 * as the scalar twin; each lane's sum adds in token order from 0.
 */
inline void
softmaxColumnLanes(double *scores, std::size_t n0)
{
    constexpr std::size_t kCols = kAttnBlockCols;
    Vec mxv[kBlockVecs];
    for (std::size_t b = 0; b < kBlockVecs; ++b)
        mxv[b] = FIGLUT_VEC_LOAD(scores + b * kLanes);
    for (std::size_t t = 1; t < n0; ++t)
        for (std::size_t b = 0; b < kBlockVecs; ++b) {
            const Vec r = FIGLUT_VEC_LOAD(scores + t * kCols + b * kLanes);
            mxv[b] = mxv[b] < r ? r : mxv[b];
        }
    for (std::size_t u = 1; u < kCols; ++u) {
        double mx = mxv[u / kLanes][u % kLanes];
        for (std::size_t t = n0; t < n0 + u; ++t) {
            const double x = scores[t * kCols + u];
            mx = mx < x ? x : mx;
        }
        mxv[u / kLanes][u % kLanes] = mx;
    }

    Vec sumv[kBlockVecs];
    for (std::size_t b = 0; b < kBlockVecs; ++b)
        sumv[b] = Vec{};
    for (std::size_t t = 0; t < n0; ++t)
        for (std::size_t b = 0; b < kBlockVecs; ++b) {
            double *x = scores + t * kCols + b * kLanes;
            const Vec e = expBody<Vec>(FIGLUT_VEC_LOAD(x) - mxv[b]);
            FIGLUT_VEC_AT(x) = e;
            sumv[b] = sumv[b] + e;
        }
    for (std::size_t u = 1; u < kCols; ++u) {
        const double mx = mxv[u / kLanes][u % kLanes];
        double sum = sumv[u / kLanes][u % kLanes];
        for (std::size_t t = n0; t < n0 + u; ++t) {
            double &x = scores[t * kCols + u];
            x = expBody(x - mx);
            sum += x;
        }
        sumv[u / kLanes][u % kLanes] = sum;
    }

    for (std::size_t t = 0; t < n0; ++t)
        for (std::size_t b = 0; b < kBlockVecs; ++b) {
            double *x = scores + t * kCols + b * kLanes;
            FIGLUT_VEC_AT(x) = FIGLUT_VEC_LOAD(x) / sumv[b];
        }
    for (std::size_t u = 1; u < kCols; ++u) {
        const double sum = sumv[u / kLanes][u % kLanes];
        for (std::size_t t = n0; t < n0 + u; ++t)
            scores[t * kCols + u] /= sum;
    }
}

/**
 * Softmax over one contiguous row of n >= 1 scores: exp on whole
 * vectors, then the scalar twin on the tail, then the sum in token
 * order from 0.
 */
inline void
softmaxRow(double *v, std::size_t n)
{
    double mx = v[0];
    for (std::size_t i = 1; i < n; ++i)
        mx = mx < v[i] ? v[i] : mx;
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        FIGLUT_VEC_AT(v + i) = expBody<Vec>(FIGLUT_VEC_LOAD(v + i) - mx);
    for (; i < n; ++i)
        v[i] = expBody(v[i] - mx);
    double sum = 0.0;
    for (i = 0; i < n; ++i)
        sum += v[i];
    for (i = 0; i < n; ++i)
        v[i] = v[i] / sum;
}

/**
 * Blend of Cols <= 4 columns starting at span column jb over dims
 * [d0, d0 + Vecs * kLanes): column j's probability at token t is
 * p[t * ts + j * cs]. Every column of the tile sees tokens [0, n0);
 * tail token n0 + i is seen by columns j > i only and added to those
 * alone.
 */
template <std::size_t Cols, std::size_t Vecs>
void
blendTile(const AttentionHead &a, const double *p, std::size_t ts,
          std::size_t cs, std::size_t jb, std::size_t n0, std::size_t d0)
{
    Vec acc[Cols][Vecs];
    for (std::size_t j = 0; j < Cols; ++j)
        for (std::size_t x = 0; x < Vecs; ++x)
            acc[j][x] = Vec{};
    for (std::size_t t = 0; t < n0; ++t) {
        const double *vt = a.v[t] + d0;
        Vec v[Vecs];
        for (std::size_t x = 0; x < Vecs; ++x)
            v[x] = FIGLUT_VEC_LOAD(vt + x * kLanes);
        const double *pt = p + t * ts;
        for (std::size_t j = 0; j < Cols; ++j) {
            const double pj = pt[j * cs];
            for (std::size_t x = 0; x < Vecs; ++x)
                acc[j][x] = acc[j][x] + pj * v[x];
        }
    }
    for (std::size_t i = 0; i + 1 < Cols; ++i) {
        const std::size_t t = n0 + i;
        const double *vt = a.v[t] + d0;
        Vec v[Vecs];
        for (std::size_t x = 0; x < Vecs; ++x)
            v[x] = FIGLUT_VEC_LOAD(vt + x * kLanes);
        for (std::size_t j = i + 1; j < Cols; ++j) {
            const double pj = p[t * ts + j * cs];
            for (std::size_t x = 0; x < Vecs; ++x)
                acc[j][x] = acc[j][x] + pj * v[x];
        }
    }
    for (std::size_t j = 0; j < Cols; ++j)
        for (std::size_t x = 0; x < Vecs; ++x)
            for (std::size_t e = 0; e < kLanes; ++e)
                a.out[(d0 + x * kLanes + e) * a.outStride + jb + j] =
                    acc[j][x][e];
}

/**
 * All head dims of a Cols-column blend tile: kBlendDims-wide tiles,
 * then one-vector ones, then the last hd % kLanes dims one scalar
 * chain each (none for the compile-time head dims).
 */
template <std::size_t HeadDim, std::size_t Cols>
void
blendColumns(const AttentionHead &a, const double *p, std::size_t ts,
             std::size_t cs, std::size_t jb, std::size_t n0)
{
    const std::size_t hd = HeadDim != 0 ? HeadDim : a.headDim;
    std::size_t d0 = 0;
    for (; d0 + kBlendDims <= hd; d0 += kBlendDims)
        blendTile<Cols, kBlendDims / kLanes>(a, p, ts, cs, jb, n0, d0);
    for (; d0 + kLanes <= hd; d0 += kLanes)
        blendTile<Cols, 1>(a, p, ts, cs, jb, n0, d0);
    if constexpr (HeadDim % kLanes != 0 || HeadDim == 0)
        for (; d0 < hd; ++d0)
            for (std::size_t j = 0; j < Cols; ++j) {
                double acc = 0.0;
                for (std::size_t t = 0; t < n0 + j; ++t)
                    acc += p[t * ts + j * cs] * a.v[t][d0];
                a.out[d0 * a.outStride + jb + j] = acc;
            }
}

template <std::size_t HeadDim>
void
attentionHeadFixed(const AttentionHead &a)
{
    const std::size_t held = a.tokens - a.columns;
    for (std::size_t j0 = 0; j0 < a.columns; j0 += kAttnBlockCols) {
        const std::size_t w = a.columns - j0 < kAttnBlockCols
                                  ? a.columns - j0
                                  : kAttnBlockCols;
        // Tokens the block's last column sees; column j0 + j sees the
        // first held + j0 + j + 1.
        const std::size_t n = held + j0 + w;
        std::size_t ts = 1, cs = n;
        switch (w) {
          case 1: scoreTokenLanes<HeadDim, 1>(a, j0, n); break;
          case 2: scoreTokenLanes<HeadDim, 2>(a, j0, n); break;
          case 3: scoreTokenLanes<HeadDim, 3>(a, j0, n); break;
          case 4: scoreTokenLanes<HeadDim, 4>(a, j0, n); break;
          case 5: scoreTokenLanes<HeadDim, 5>(a, j0, n); break;
          case 6: scoreTokenLanes<HeadDim, 6>(a, j0, n); break;
          case 7: scoreTokenLanes<HeadDim, 7>(a, j0, n); break;
          default:
            scoreColumnLanes<HeadDim>(a, j0, n);
            ts = kAttnBlockCols;
            cs = 1;
            break;
        }
        if (w == kAttnBlockCols)
            softmaxColumnLanes(a.scores, held + j0 + 1);
        else
            for (std::size_t j = 0; j < w; ++j)
                softmaxRow(a.scores + j * cs, held + j0 + j + 1);

        for (std::size_t jb = 0; jb < w; jb += kBlendCols) {
            const double *p = a.scores + jb * cs;
            const std::size_t n0 = held + j0 + jb + 1;
            switch (w - jb < kBlendCols ? w - jb : kBlendCols) {
              case 1:
                blendColumns<HeadDim, 1>(a, p, ts, cs, j0 + jb, n0);
                break;
              case 2:
                blendColumns<HeadDim, 2>(a, p, ts, cs, j0 + jb, n0);
                break;
              case 3:
                blendColumns<HeadDim, 3>(a, p, ts, cs, j0 + jb, n0);
                break;
              default:
                blendColumns<HeadDim, 4>(a, p, ts, cs, j0 + jb, n0);
                break;
            }
        }
    }
}

/** The entry body: compile-time head dims 32 and 64, else runtime. */
inline void
attentionHeadBody(const AttentionHead &a)
{
    switch (a.headDim) {
      case 32: attentionHeadFixed<32>(a); break;
      case 64: attentionHeadFixed<64>(a); break;
      default: attentionHeadFixed<0>(a); break;
    }
}

} // namespace
} // namespace simd_detail
} // namespace figlut

#endif // FIGLUT_CORE_ATTENTION_KERNEL_H
