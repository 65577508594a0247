/**
 * @file
 * Differential tests for the vectorized reference vector ops
 * (runtime/reference_ops.h over the core/simd.h dispatch tables):
 * cross-ISA bit-identity of layer norm, residual add, and the LUT
 * GELU against the forced-scalar table over odd and tail lengths, the
 * oracle softmax's normalization/stability properties, and the LUT
 * GELU's bounded approximation error vs the exact tanh GELU, and the
 * chunk-causal attention core against the column-at-a-time oracle.
 * The CI scalar-build leg runs this suite with FIGLUT_SIMD_AVX2=OFF.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "attention_oracle.h"
#include "common/rng.h"
#include "core/simd.h"
#include "runtime/reference_ops.h"

namespace figlut {
namespace {

/** Restore the dispatcher's environment selection on scope exit. */
struct IsaOverrideGuard
{
    explicit IsaOverrideGuard(SimdIsa isa) { setSimdIsaOverride(isa); }
    ~IsaOverrideGuard() { clearSimdIsaOverride(); }
};

/** ISAs this binary + host can actually run (Scalar always). */
std::vector<SimdIsa>
supportedIsas()
{
    std::vector<SimdIsa> isas{SimdIsa::Scalar};
    for (const auto isa :
         {SimdIsa::Avx2, SimdIsa::Neon, SimdIsa::Avx512}) {
        if (simdIsaSupported(isa))
            isas.push_back(isa);
    }
    return isas;
}

/** Odd, sub-vector, vector-multiple, and large lengths in one sweep. */
const std::vector<std::size_t> kLengths = {1,  2,  3,  4,   5,   7,  8,
                                           9,  16, 33, 100, 257, 1024};

MatrixD
randomMatrix(std::size_t rows, std::size_t cols, uint64_t seed,
             double scale = 3.0)
{
    Rng rng(seed);
    MatrixD m(rows, cols);
    for (auto &v : m)
        v = rng.normal() * scale;
    return m;
}

void
expectBitIdentical(const MatrixD &a, const MatrixD &b,
                   const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << what << " element " << i;
}

// ----------------------------------------------------- cross-ISA runs

TEST(ReferenceOps, LayerNormBitIdenticalAcrossIsas)
{
    for (const std::size_t h : kLengths) {
        for (const std::size_t batch : {1u, 3u}) {
            const MatrixD x = randomMatrix(h, batch, 100 + h);
            MatrixD scalarOut;
            {
                IsaOverrideGuard guard(SimdIsa::Scalar);
                scalarOut = referenceLayerNorm(x);
            }
            for (const auto isa : supportedIsas()) {
                IsaOverrideGuard guard(isa);
                expectBitIdentical(
                    referenceLayerNorm(x), scalarOut,
                    std::string("layernorm h=") + std::to_string(h) +
                        " isa=" + simdIsaName(isa));
            }
        }
    }
}

TEST(ReferenceOps, ResidualAddBitIdenticalAcrossIsas)
{
    for (const std::size_t n : kLengths) {
        const MatrixD a = randomMatrix(n, 2, 300 + n);
        const MatrixD b = randomMatrix(n, 2, 400 + n);
        MatrixD scalarOut;
        {
            IsaOverrideGuard guard(SimdIsa::Scalar);
            scalarOut = referenceResidualAdd(a, b);
        }
        for (const auto isa : supportedIsas()) {
            IsaOverrideGuard guard(isa);
            expectBitIdentical(referenceResidualAdd(a, b), scalarOut,
                               std::string("residual n=") +
                                   std::to_string(n) +
                                   " isa=" + simdIsaName(isa));
        }
    }
}

TEST(ReferenceOps, GeluLutBitIdenticalAcrossIsas)
{
    for (const std::size_t n : kLengths) {
        // Scale past the table range so the identity tail and the lo
        // clamp are exercised on every length.
        const MatrixD x = randomMatrix(n, 1, 500 + n, 6.0);
        MatrixD scalarOut;
        {
            IsaOverrideGuard guard(SimdIsa::Scalar);
            scalarOut = referenceGeluLut(x);
        }
        for (const auto isa : supportedIsas()) {
            IsaOverrideGuard guard(isa);
            expectBitIdentical(referenceGeluLut(x), scalarOut,
                               std::string("gelu-lut n=") +
                                   std::to_string(n) +
                                   " isa=" + simdIsaName(isa));
        }
    }
}

// ----------------------------------------------------- op properties

TEST(ReferenceOps, LayerNormNormalizesEachColumn)
{
    const std::size_t h = 257;
    const MatrixD x = randomMatrix(h, 4, 42);
    const MatrixD out = referenceLayerNorm(x);
    for (std::size_t b = 0; b < out.cols(); ++b) {
        double mean = 0.0, var = 0.0;
        for (std::size_t r = 0; r < h; ++r)
            mean += out(r, b);
        mean /= static_cast<double>(h);
        for (std::size_t r = 0; r < h; ++r)
            var += (out(r, b) - mean) * (out(r, b) - mean);
        var /= static_cast<double>(h);
        EXPECT_NEAR(mean, 0.0, 1e-12);
        EXPECT_NEAR(var, 1.0, 1e-4); // eps shrinks variance slightly
    }
}

TEST(ReferenceOps, SoftmaxSumsToOneAndHandlesLargeValues)
{
    for (const std::size_t n : kLengths) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = 700.0 + static_cast<double>(i); // exp would overflow
        referenceSoftmaxInPlace(v.data(), n);
        double sum = 0.0;
        for (const double p : v) {
            EXPECT_TRUE(std::isfinite(p));
            EXPECT_GE(p, 0.0);
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << "n=" << n;
    }
}

TEST(ReferenceOps, GeluLutMatchesTanhGeluWithinTolerance)
{
    // Dense sweep across the table range plus both out-of-range tails.
    // The table's chord error bound is < 1e-5 (DESIGN.md); 1e-4 is the
    // acceptance tolerance with headroom for the asymptote tails.
    std::vector<double> xs;
    for (double x = -12.0; x <= 12.0; x += 1.0 / 64.0)
        xs.push_back(x);
    MatrixD m(xs.size(), 1);
    for (std::size_t i = 0; i < xs.size(); ++i)
        m.at(i) = xs[i];
    const MatrixD exact = referenceGelu(m);
    const MatrixD approx = referenceGeluLut(m);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_NEAR(approx.at(i), exact.at(i), 1e-4)
            << "x=" << xs[i];
    }
    // Identity tail: far above the range the LUT result IS x.
    MatrixD big(1, 1);
    big.at(0) = 100.0;
    EXPECT_EQ(referenceGeluLut(big).at(0), 100.0);
}

// ------------------------------------------- chunk-causal attention

/**
 * K/V storage for one span's tokens. Stride 1 packs each token as
 * [k | v], the paged arena's slab layout; a larger stride interleaves
 * that many columns, like one column of an h x stride KvCache
 * snapshot.
 */
struct SpanTokens
{
    std::vector<std::vector<double>> storage;
    std::vector<KvTokenRef> refs;
};

SpanTokens
makeSpanTokens(std::size_t count, std::size_t h, std::size_t stride,
               Rng &rng)
{
    SpanTokens s;
    for (std::size_t t = 0; t < count; ++t) {
        std::vector<double> buf(2 * h * stride);
        for (auto &x : buf)
            x = rng.normal();
        s.storage.push_back(std::move(buf));
        const double *base = s.storage.back().data();
        const std::size_t col = t % stride;
        s.refs.push_back(
            KvTokenRef{base + col, base + h * stride + col, stride});
    }
    return s;
}

void
expectSameBits(const MatrixD &a, const MatrixD &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint64_t x, y;
        std::memcpy(&x, &a.at(i), sizeof x);
        std::memcpy(&y, &b.at(i), sizeof y);
        ASSERT_EQ(x, y) << what << " element " << i;
    }
}

TEST(ChunkAttention, MatchesPerColumnOracle)
{
    // Every (chunk width, held tokens) pair runs as one call with four
    // spans: a decode span, the span under test, a short prefill span
    // and a single-token decode span, with arena (stride 1) and
    // KvCache-style (stride > 1) refs mixed across spans, under every
    // supported ISA. Chunk widths sit around the 8-column score block
    // and the 4-column blend tile; held counts leave the token count
    // off a multiple of 8. Heads run 1..8 and headDim covers odd
    // sizes, ones below a vector, the compile-time 32 and 64, and 33.
    const std::size_t chunkColumns[] = {1, 2, 7, 8, 9, 12, 17, 130};
    const std::size_t heldTokens[] = {0, 1, 5, 300};
    const std::size_t headDims[] = {1, 3, 5, 8, 7, 32, 64, 33};
    Rng rng(2718);
    std::size_t call = 0;
    for (const std::size_t C : chunkColumns) {
        for (const std::size_t held : heldTokens) {
            const std::size_t heads = 1 + call % 8;
            const std::size_t headDim = headDims[call % 8];
            const std::size_t h = heads * headDim;
            struct Shape
            {
                std::size_t columns, held, stride;
            };
            const Shape shapes[] = {{1, 2 + call % 7, 1 + call % 3},
                                    {C, held, 1 + 2 * (call % 2)},
                                    {1 + call % 4, call % 3, 2},
                                    {1, 0, 1}};
            ++call;

            std::vector<SpanTokens> tokens;
            std::size_t width = 0;
            for (const Shape &sh : shapes) {
                tokens.push_back(makeSpanTokens(sh.held + sh.columns, h,
                                                sh.stride, rng));
                width += sh.columns;
            }
            std::vector<AttentionSpan> spans;
            std::vector<std::vector<KvTokenRef>> views;
            for (std::size_t s = 0; s < tokens.size(); ++s) {
                const std::vector<KvTokenRef> &refs = tokens[s].refs;
                spans.push_back(AttentionSpan{refs.data(), refs.size(),
                                              views.size(),
                                              shapes[s].columns});
                for (std::size_t j = 0; j < shapes[s].columns; ++j) {
                    const auto prefix = static_cast<std::ptrdiff_t>(
                        shapes[s].held + j + 1);
                    views.emplace_back(refs.begin(), refs.begin() + prefix);
                }
            }
            const MatrixD q = randomMatrix(h, width, 9000 + call, 1.0);
            const MatrixD oracle =
                perColumnAttentionOracle(q, views, heads);
            for (const auto isa : supportedIsas()) {
                IsaOverrideGuard guard(isa);
                const std::string what =
                    "C=" + std::to_string(C) +
                    " held=" + std::to_string(held) +
                    " heads=" + std::to_string(heads) +
                    " headDim=" + std::to_string(headDim) +
                    " isa=" + simdIsaName(isa);
                expectSameBits(referenceChunkAttention(q, spans, heads),
                               oracle, "spans " + what);
                expectSameBits(referenceDecodeAttention(q, views, heads),
                               oracle, "views " + what);
            }
        }
    }
}

TEST(ReferenceOps, ActiveIsaMatchesDispatcher)
{
    // The suite above forces ISAs explicitly; sanity-check that the
    // default dispatch picks a supported one so the un-forced test
    // paths exercised the table they claim to.
    EXPECT_TRUE(simdIsaSupported(activeSimdIsa()));
}

} // namespace
} // namespace figlut
