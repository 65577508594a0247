/**
 * @file
 * Tests for the per-sequence KvCache and for ragged decode attention
 * over token views: each column must be bit-identical to the
 * column-at-a-time oracle over its own history, however the views
 * group into chunk-causal spans — the property the serve Engine's
 * fused step rests on.
 */

#include <gtest/gtest.h>

#include <cstddef>

#include "attention_oracle.h"
#include "common/rng.h"
#include "runtime/kv_cache.h"
#include "runtime/reference_ops.h"

namespace figlut {
namespace {

MatrixD
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    MatrixD m(rows, cols);
    for (auto &v : m)
        v = rng.normal();
    return m;
}

TEST(KvCache, GrowsInLockStepAcrossLayers)
{
    KvCache cache(3);
    EXPECT_EQ(cache.layers(), 3u);
    EXPECT_EQ(cache.length(), 0u);
    EXPECT_TRUE(cache.empty());
    EXPECT_EQ(cache.bytes(), 0u);

    Rng rng(1);
    for (int step = 0; step < 2; ++step)
        for (std::size_t l = 0; l < 3; ++l)
            cache.append(l, randomMatrix(4, 1, rng),
                         randomMatrix(4, 1, rng));
    EXPECT_EQ(cache.length(), 2u);
    EXPECT_EQ(cache.keys(1).size(), 2u);
    EXPECT_EQ(cache.values(2).size(), 2u);
    EXPECT_EQ(cache.bytes(), 2u * 3u * 2u * 4u * sizeof(double));

    cache.clear();
    EXPECT_EQ(cache.length(), 0u);
    EXPECT_EQ(cache.layers(), 3u);
}

TEST(KvCache, ComparesByContents)
{
    Rng rng(2);
    const MatrixD k = randomMatrix(4, 1, rng);
    const MatrixD v = randomMatrix(4, 1, rng);
    KvCache a(1), b(1);
    a.append(0, k, v);
    b.append(0, k, v);
    EXPECT_EQ(a, b);
    b.append(0, k, v);
    EXPECT_NE(a, b);
}

TEST(KvCache, RejectsMalformedUse)
{
    KvCache cache(1);
    Rng rng(3);
    EXPECT_THROW(cache.append(1, randomMatrix(4, 1, rng),
                              randomMatrix(4, 1, rng)),
                 FatalError);
    EXPECT_THROW(cache.append(0, randomMatrix(4, 1, rng),
                              randomMatrix(3, 1, rng)),
                 FatalError);
    cache.append(0, randomMatrix(4, 1, rng), randomMatrix(4, 1, rng));
    // Step width must stay constant for the life of the sequence.
    EXPECT_THROW(cache.append(0, randomMatrix(4, 2, rng),
                              randomMatrix(4, 2, rng)),
                 FatalError);
    EXPECT_THROW(cache.keys(1), FatalError);
    EXPECT_THROW(cache.values(1), FatalError);
}

/** Stride-1 token refs over random [k | v] rows, like arena slots. */
std::vector<KvTokenRef>
randomTokens(std::size_t count, std::size_t h,
             std::vector<std::vector<double>> &storage, Rng &rng)
{
    std::vector<KvTokenRef> refs;
    for (std::size_t t = 0; t < count; ++t) {
        std::vector<double> buf(2 * h);
        for (auto &x : buf)
            x = rng.normal();
        storage.push_back(std::move(buf));
        const double *base = storage.back().data();
        refs.push_back(KvTokenRef{base, base + h, 1});
    }
    return refs;
}

TEST(RaggedAttention, PrefixViewsMatchOracle)
{
    // Views shaped like perfbench's attention probe: every column
    // reads a prefix of one token list. Two decode columns, a
    // 17-column prefill chunk from the first token, two columns whose
    // prefixes happen to extend each other (merged into one span), and
    // a long decode column.
    const std::size_t h = 12, heads = 3;
    Rng rng(23);
    std::vector<std::vector<double>> storage;
    const std::vector<KvTokenRef> refs = randomTokens(64, h, storage, rng);
    std::vector<std::size_t> contexts = {5, 9};
    for (std::size_t c = 1; c <= 17; ++c)
        contexts.push_back(c);
    for (const std::size_t c : {30, 31, 64})
        contexts.push_back(c);
    std::vector<std::vector<KvTokenRef>> views;
    for (const std::size_t c : contexts)
        views.emplace_back(refs.begin(),
                           refs.begin() + static_cast<std::ptrdiff_t>(c));
    const MatrixD q = randomMatrix(h, views.size(), rng);
    EXPECT_EQ(referenceDecodeAttention(q, views, heads),
              perColumnAttentionOracle(q, views, heads));
}

TEST(RaggedAttention, ViewThatDiffersInOneRefIsNotMerged)
{
    // Column 1's view is column 0's plus one token, but one earlier
    // ref points at other storage. Merging the two into one span
    // would make column 0 read that other token; the adapter must
    // compare ref by ref and keep them apart.
    const std::size_t h = 8, heads = 2;
    Rng rng(29);
    std::vector<std::vector<double>> storage;
    const std::vector<KvTokenRef> refs = randomTokens(12, h, storage, rng);
    const std::vector<KvTokenRef> other = randomTokens(1, h, storage, rng);
    for (const bool swapK : {true, false}) {
        std::vector<std::vector<KvTokenRef>> views = {
            std::vector<KvTokenRef>(refs.begin(), refs.begin() + 11),
            refs};
        KvTokenRef &changed = views[1][4];
        (swapK ? changed.k : changed.v) = swapK ? other[0].k : other[0].v;
        const MatrixD q = randomMatrix(h, 2, rng);
        EXPECT_EQ(referenceDecodeAttention(q, views, heads),
                  perColumnAttentionOracle(q, views, heads))
            << (swapK ? "K" : "V") << " ref differs";
    }
}

TEST(RaggedAttention, RejectsMalformedViews)
{
    const std::size_t h = 4;
    Rng rng(17);
    const MatrixD q = randomMatrix(h, 1, rng);
    std::vector<std::vector<double>> storage;
    const std::vector<KvTokenRef> refs = randomTokens(4, h, storage, rng);

    // One view per column, exactly.
    EXPECT_THROW(referenceDecodeAttention(
                     q, std::vector<std::vector<KvTokenRef>>{}, 2),
                 FatalError);
    EXPECT_THROW(referenceDecodeAttention(q, {refs, refs}, 2), FatalError);
    // Empty history.
    EXPECT_THROW(
        referenceDecodeAttention(q, {std::vector<KvTokenRef>{}}, 2),
        FatalError);

    // Chunk-causal spans: they must cover q's columns in order, each
    // once, with a token per column and real storage.
    const MatrixD q3 = randomMatrix(h, 3, rng);
    const auto span = [&](std::size_t first, std::size_t columns,
                          std::size_t tokens) {
        return AttentionSpan{refs.data(), tokens, first, columns};
    };
    EXPECT_NO_THROW(referenceChunkAttention(q3, {span(0, 3, 4)}, 2));
    EXPECT_NO_THROW(
        referenceChunkAttention(q3, {span(0, 1, 2), span(1, 2, 4)}, 2));
    // Gap, overlap, and columns left uncovered or covered beyond q.
    EXPECT_THROW(
        referenceChunkAttention(q3, {span(0, 1, 2), span(2, 1, 2)}, 2),
        FatalError);
    EXPECT_THROW(
        referenceChunkAttention(q3, {span(0, 2, 2), span(1, 2, 4)}, 2),
        FatalError);
    EXPECT_THROW(referenceChunkAttention(q3, {span(0, 2, 4)}, 2),
                 FatalError);
    EXPECT_THROW(referenceChunkAttention(q3, {span(0, 4, 4)}, 2),
                 FatalError);
    EXPECT_THROW(referenceChunkAttention(q3, {}, 2), FatalError);
    // Fewer tokens than columns.
    EXPECT_THROW(referenceChunkAttention(q3, {span(0, 3, 2)}, 2),
                 FatalError);
    // Zero columns.
    EXPECT_THROW(referenceChunkAttention(
                     q3, {span(0, 0, 1), span(0, 3, 4)}, 2),
                 FatalError);
    // Null token list, null K, null V.
    EXPECT_THROW(referenceChunkAttention(
                     q3, {AttentionSpan{nullptr, 4, 0, 3}}, 2),
                 FatalError);
    for (const bool nullK : {true, false}) {
        std::vector<KvTokenRef> broken = refs;
        (nullK ? broken[2].k : broken[2].v) = nullptr;
        EXPECT_THROW(referenceChunkAttention(
                         q3, {AttentionSpan{broken.data(), 4, 0, 3}}, 2),
                     FatalError);
        EXPECT_THROW(referenceDecodeAttention(
                         q, {std::vector<KvTokenRef>(broken)}, 2),
                     FatalError);
    }
    // Heads that do not divide h, through both entry points.
    EXPECT_THROW(referenceChunkAttention(q3, {span(0, 3, 4)}, 3),
                 FatalError);
    EXPECT_THROW(referenceChunkAttention(q3, {span(0, 3, 4)}, 0),
                 FatalError);
    EXPECT_THROW(referenceDecodeAttention(q, {refs}, 3), FatalError);
}

} // namespace
} // namespace figlut
