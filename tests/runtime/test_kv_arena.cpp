/**
 * @file
 * Differential suite for the paged KV arena: random ragged traffic
 * written through the arena must be bit-identical — via materialize(),
 * tokenRefs(), and the attention computed over them — to the same
 * tokens held in per-request contiguous KvCaches, across block sizes,
 * budgets, eviction/re-admission cycles, and injected faults. Also
 * pins the governance contracts the serving layer builds on:
 * all-or-nothing reservation rollback, budget-before-injector attempt
 * accounting, and deterministic fault schedules.
 */

#include <gtest/gtest.h>

#include "attention_oracle.h"
#include "common/rng.h"
#include "runtime/kv_arena.h"
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

/** Append one random token to (seq, layer) of the arena AND the
 *  contiguous oracle cache, writing identical doubles to both. */
void
appendEverywhere(KvArena &arena, KvArena::SeqId seq, KvCache &oracle,
                 std::size_t layer, std::size_t hidden, Rng &rng)
{
    const MatrixD k = randomMatrix(hidden, 1, rng);
    const MatrixD v = randomMatrix(hidden, 1, rng);
    const KvArena::TokenSlot slot = arena.appendToken(seq, layer);
    for (std::size_t r = 0; r < hidden; ++r) {
        slot.k[r] = k(r, 0);
        slot.v[r] = v(r, 0);
    }
    oracle.append(layer, k, v);
}

TEST(KvArena, DifferentialAgainstKvCacheAcrossBlockSizes)
{
    const std::size_t hidden = 8, layers = 2, heads = 2;
    for (const std::size_t blockTokens : {1u, 3u, 5u, 16u}) {
        KvArena::Options options;
        options.hidden = hidden;
        options.layers = layers;
        options.blockTokens = blockTokens;
        KvArena arena(options);
        Rng rng(100 + blockTokens);

        // Ragged sequences spanning less than one block up to several.
        const std::size_t lengths[] = {1, 2, 7, 19};
        std::vector<KvArena::SeqId> seqs;
        std::vector<KvCache> oracles;
        for (std::size_t s = 0; s < 4; ++s) {
            seqs.push_back(arena.createSequence());
            oracles.emplace_back(layers);
        }
        // Interleave appends across sequences (token-major), like a
        // fused step appending one token per live request.
        for (std::size_t t = 0; t < 19; ++t) {
            for (std::size_t s = 0; s < 4; ++s) {
                if (t >= lengths[s])
                    continue;
                ASSERT_EQ(arena.reserveTokens(seqs[s], t + 1),
                          KvArena::Reserve::Ok);
                for (std::size_t l = 0; l < layers; ++l)
                    appendEverywhere(arena, seqs[s], oracles[s], l,
                                     hidden, rng);
            }
        }

        for (std::size_t s = 0; s < 4; ++s) {
            EXPECT_EQ(arena.tokens(seqs[s]), lengths[s]);
            // materialize() round-trips bit-identically.
            EXPECT_EQ(arena.materialize(seqs[s]), oracles[s])
                << "blockTokens " << blockTokens << " seq " << s;
        }

        // The attention computed over arena views must equal the one
        // over the contiguous oracle, bit for bit, on every layer.
        const MatrixD q = randomMatrix(hidden, 4, rng);
        for (std::size_t l = 0; l < layers; ++l) {
            std::vector<std::vector<KvTokenRef>> views(4), oracleViews;
            for (std::size_t s = 0; s < 4; ++s) {
                arena.tokenRefs(seqs[s], l, views[s]);
                ASSERT_EQ(views[s].size(), lengths[s]);
                oracleViews.push_back(snapshotColumnViews(
                    oracles[s].keys(l), oracles[s].values(l), 0));
            }
            EXPECT_EQ(referenceDecodeAttention(q, views, heads),
                      referenceDecodeAttention(q, oracleViews, heads))
                << "blockTokens " << blockTokens << " layer " << l;
        }
    }
}

TEST(KvArena, EvictionAndReAdmissionCyclesStayBitIdentical)
{
    const std::size_t hidden = 4, layers = 2;
    KvArena::Options options;
    options.hidden = hidden;
    options.layers = layers;
    options.blockTokens = 2;
    // Exactly the worst round's demand (life 2: 6 blocks for a's 5
    // tokens + 4 for b), so the assertions below prove blocks recycle
    // across lives instead of accumulating.
    options.budgetBytes = 10 * 2 * 2 * hidden * sizeof(double);
    KvArena arena(options);
    ASSERT_EQ(arena.budgetBlocks(), 10u);

    Rng rng(7);
    const KvArena::SeqId a = arena.createSequence();
    const KvArena::SeqId b = arena.createSequence();

    // Three lives of sequence b; each one releases its blocks back to
    // the free list and must rebuild a bit-identical KvCache view even
    // though the re-admitted life lands in recycled blocks.
    for (int life = 0; life < 3; ++life) {
        KvCache oracleA(layers), oracleB(layers);
        const std::size_t lenA = 3 + static_cast<std::size_t>(life);
        ASSERT_EQ(arena.reserveTokens(a, lenA), KvArena::Reserve::Ok);
        ASSERT_EQ(arena.reserveTokens(b, 4), KvArena::Reserve::Ok);
        for (std::size_t t = 0; t < 5; ++t)
            for (std::size_t l = 0; l < layers; ++l) {
                if (t < lenA)
                    appendEverywhere(arena, a, oracleA, l, hidden, rng);
                if (t < 4)
                    appendEverywhere(arena, b, oracleB, l, hidden, rng);
            }
        EXPECT_EQ(arena.materialize(a), oracleA) << "life " << life;
        EXPECT_EQ(arena.materialize(b), oracleB) << "life " << life;

        arena.resetSequence(a);
        arena.resetSequence(b);
        EXPECT_EQ(arena.blocksInUse(), 0u);
        EXPECT_EQ(arena.tokens(a), 0u);
    }
    // Recycling: the in-use high-water mark is exactly the worst
    // single round, not the sum of lives.
    EXPECT_EQ(arena.peakBytes(), options.budgetBytes);

    arena.releaseSequence(a);
    arena.releaseSequence(b);
    EXPECT_FALSE(arena.hasSequence(a));
}

TEST(KvArena, BudgetDenialRollsBackAndSkipsTheInjector)
{
    const std::size_t hidden = 4;
    KvArena::Options options;
    options.hidden = hidden;
    options.layers = 2;
    options.blockTokens = 2;
    options.budgetBytes = 3 * 2 * 2 * hidden * sizeof(double);
    KvArena arena(options);
    ASSERT_EQ(arena.budgetBlocks(), 3u);

    const KvArena::SeqId a = arena.createSequence();
    // 2 tokens x 2 layers = 2 blocks of the 3-block budget.
    ASSERT_EQ(arena.reserveTokens(a, 2), KvArena::Reserve::Ok);
    EXPECT_EQ(arena.blocksInUse(), 2u);
    EXPECT_EQ(arena.allocationAttempts(), 2u);

    // Growth to 4 tokens needs 2 more blocks; only 1 fits. The grant
    // must roll back whole (all-or-nothing) and the denied allocation
    // must not count as an injector-visible attempt.
    const std::uint64_t attemptsBefore = arena.allocationAttempts();
    ASSERT_EQ(arena.reserveTokens(a, 4), KvArena::Reserve::NoCapacity);
    EXPECT_EQ(arena.blocksInUse(), 2u);
    EXPECT_EQ(arena.tokens(a), 0u);
    // One block was granted (one attempt) before the budget denied the
    // second; the granted attempt counted, the denied one did not.
    EXPECT_EQ(arena.allocationAttempts(), attemptsBefore + 1);

    // The failed reservation left the tables usable: the original 2
    // tokens are still fully backed.
    ASSERT_EQ(arena.reserveTokens(a, 2), KvArena::Reserve::Ok);
    EXPECT_EQ(arena.allocationAttempts(), attemptsBefore + 1);
}

TEST(KvArena, InjectedFaultsAreDeterministicAndAtomic)
{
    const std::size_t hidden = 4;
    CountingFaultInjector faults(/*failEvery=*/3);
    KvArena::Options options;
    options.hidden = hidden;
    options.layers = 1;
    options.blockTokens = 1;
    KvArena arena(options, &faults);

    const KvArena::SeqId a = arena.createSequence();
    // Attempts 1, 2 succeed; attempt 3 faults, rolling back the whole
    // 3-block reservation.
    ASSERT_EQ(arena.reserveTokens(a, 3), KvArena::Reserve::Fault);
    EXPECT_EQ(arena.blocksInUse(), 0u);
    EXPECT_EQ(arena.allocationAttempts(), 3u);
    EXPECT_EQ(arena.allocationFaults(), 1u);

    // The attempt counter advances deterministically: the retry uses
    // attempts 4, 5, 6 and faults again on 6.
    ASSERT_EQ(arena.reserveTokens(a, 3), KvArena::Reserve::Fault);
    EXPECT_EQ(arena.allocationFaults(), 2u);
    // A smaller reservation (attempts 7, 8) clears.
    ASSERT_EQ(arena.reserveTokens(a, 2), KvArena::Reserve::Ok);
    EXPECT_EQ(arena.blocksInUse(), 2u);

    // A second arena with the same injector replays the identical
    // schedule (the injector is pure, so sharing is side-effect-free).
    KvArena replay(options, &faults);
    const KvArena::SeqId b = replay.createSequence();
    ASSERT_EQ(replay.reserveTokens(b, 3), KvArena::Reserve::Fault);
    ASSERT_EQ(replay.reserveTokens(b, 3), KvArena::Reserve::Fault);
    ASSERT_EQ(replay.reserveTokens(b, 2), KvArena::Reserve::Ok);
}

TEST(KvArena, CoveredReservationsNeverConsultTheInjector)
{
    CountingFaultInjector faults(/*failEvery=*/1); // fail everything
    KvArena::Options options;
    options.hidden = 4;
    options.layers = 1;
    options.blockTokens = 8;
    KvArena arena(options, &faults);

    // With failEvery=1 no allocation can succeed...
    const KvArena::SeqId a = arena.createSequence();
    ASSERT_EQ(arena.reserveTokens(a, 1), KvArena::Reserve::Fault);

    // ...so build a second arena without faults, then check that a
    // reservation already covered by granted blocks is a pure no-op:
    // no attempt, no injector call.
    KvArena clean(options);
    const KvArena::SeqId b = clean.createSequence();
    ASSERT_EQ(clean.reserveTokens(b, 5), KvArena::Reserve::Ok);
    const std::uint64_t attempts = clean.allocationAttempts();
    for (std::size_t t = 1; t <= 8; ++t)
        ASSERT_EQ(clean.reserveTokens(b, t), KvArena::Reserve::Ok);
    EXPECT_EQ(clean.allocationAttempts(), attempts);
}

TEST(KvArena, MisuseDiesLoudly)
{
    KvArena::Options options;
    options.hidden = 4;
    options.layers = 1;
    options.blockTokens = 4;
    KvArena arena(options);

    const KvArena::SeqId a = arena.createSequence();
    // Appending without a reservation is a serving-layer bug.
    EXPECT_THROW(arena.appendToken(a, 0), PanicError);
    // Unknown sequence handles are fatal everywhere.
    EXPECT_THROW(arena.tokens(999), PanicError);
    EXPECT_THROW(arena.reserveTokens(999, 1), PanicError);
    // A budget smaller than one block cannot exist.
    KvArena::Options tiny = options;
    tiny.budgetBytes = 8;
    EXPECT_THROW({ KvArena bad(tiny); }, PanicError);
}

} // namespace
} // namespace figlut
