/**
 * @file
 * Paged KV arena: fixed-size blocks in one slab, per-sequence block
 * tables, and a byte budget — the memory-governed replacement for one
 * contiguous KvCache per request.
 *
 * The contiguous KvCache (runtime/kv_cache.h) owns one h x 1 matrix
 * per cached token; every live request carries its own and nothing
 * bounds their sum. The arena instead owns all KV bytes of an engine
 * in fixed-size blocks (blockTokens tokens x 2h doubles each, K then V
 * per token) and hands each sequence a per-layer block table. That
 * gives the serving layer the three properties request-count admission
 * cannot:
 *
 *  - a *byte* budget: reserveTokens() fails with NoCapacity instead of
 *    growing without bound, so admission is gated by the resource that
 *    actually limits concurrency;
 *  - O(1) reclamation: releasing a sequence returns whole blocks to a
 *    free list — eviction and re-admission never copy KV bytes;
 *  - a fault seam: every block allocation consults an optional
 *    FaultInjector, so tests and the load harness can drive allocation
 *    failure deterministically.
 *
 * Reads are bit-identical to the contiguous cache by construction:
 * appendToken() hands back the exact slab doubles a token's K/V land
 * in, tokenRefs() exposes them as stride-1 KvTokenRef views that the
 * serve Engine passes to referenceChunkAttention() as one span per
 * sequence, and materialize() copies a sequence
 * back into a KvCache (the differential suite in
 * tests/runtime/test_kv_arena.cpp pins all three against the
 * contiguous oracle).
 *
 * Ownership and invariants:
 *  - The arena owns the slab; TokenSlot/KvTokenRef pointers borrow it
 *    and stay valid until the sequence is reset or released (chunks
 *    are never reallocated, only appended).
 *  - A sequence's per-layer tables always hold the same block count,
 *    and reserveTokens() is all-or-nothing: on NoCapacity/Fault every
 *    block granted within the call is rolled back, so a failed
 *    reservation leaves the arena exactly as it found it.
 *  - Capacity checks precede the injector: an allocation that the
 *    budget would deny never counts as an attempt, and a reservation
 *    already covered by granted blocks never consults the injector —
 *    both rules keep a shared injector's attempt sequence identical
 *    between a measured engine and a trace replay.
 */

#ifndef FIGLUT_RUNTIME_KV_ARENA_H
#define FIGLUT_RUNTIME_KV_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/kv_cache.h"
#include "runtime/reference_ops.h"

namespace figlut {

/**
 * Deterministic failure seam of the memory-governed serving path.
 *
 * Implementations MUST be pure functions of their arguments (no
 * internal state): the same injector instance is shared between a
 * measured serve::Engine and sim::replayTrace(), and the
 * measured-vs-simulated pin holds only if both sides see identical
 * answers for identical attempt/step indices.
 */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;
    /**
     * Should this block allocation fail? `attempt` is the arena's
     * 1-based count of allocation attempts that passed the budget
     * check (KvArena::allocationAttempts()).
     */
    virtual bool
    failBlockAllocation(std::uint64_t attempt)
    {
        (void)attempt;
        return false;
    }
    /**
     * Clock skew, in seconds, applied to the engine's deadline clock
     * on fused step `stepIndex` (0-based). Positive skew makes
     * deadlines fire early.
     */
    virtual double
    clockSkewS(std::uint64_t stepIndex)
    {
        (void)stepIndex;
        return 0.0;
    }
};

/**
 * The stock injector of the tests and the load harness: every
 * failEvery-th allocation attempt fails (0 = never), and every odd
 * fused step runs with a fixed forward clock skew. Stateless, per the
 * FaultInjector purity contract.
 */
class CountingFaultInjector final : public FaultInjector
{
  public:
    explicit CountingFaultInjector(std::uint64_t failEvery,
                                   double skewS = 0.0)
        : failEvery_(failEvery), skewS_(skewS)
    {}

    bool
    failBlockAllocation(std::uint64_t attempt) override
    {
        return failEvery_ != 0 && attempt % failEvery_ == 0;
    }

    double
    clockSkewS(std::uint64_t stepIndex) override
    {
        return stepIndex % 2 == 1 ? skewS_ : 0.0;
    }

  private:
    std::uint64_t failEvery_ = 0;
    double skewS_ = 0.0;
};

/** Paged KV storage with per-sequence block tables and a byte budget. */
class KvArena
{
  public:
    using SeqId = std::uint64_t;
    /** The null sequence handle (createSequence() never returns it). */
    static constexpr SeqId kInvalidSeq = 0;

    struct Options
    {
        /** Hidden width h: each token slot holds 2h doubles (K, V). */
        std::size_t hidden = 0;
        /** Decoder layers; every reservation spans all of them. */
        std::size_t layers = 0;
        /** Tokens per block (the paging granularity). */
        std::size_t blockTokens = 16;
        /** Slab byte budget across all sequences; 0 = unbounded. */
        std::size_t budgetBytes = 0;
    };

    /** Outcome of a reservation (all-or-nothing; see reserveTokens). */
    enum class Reserve
    {
        Ok,         ///< capacity granted (or already covered)
        NoCapacity, ///< the byte budget cannot hold the new blocks
        Fault,      ///< the FaultInjector failed an allocation
    };

    /** Writable K/V slab pointers of one appended token (h each). */
    struct TokenSlot
    {
        double *k = nullptr;
        double *v = nullptr;
    };

    explicit KvArena(const Options &options,
                     FaultInjector *faults = nullptr);

    KvArena(const KvArena &) = delete;
    KvArena &operator=(const KvArena &) = delete;

    /** Register a new (empty) sequence and return its handle. */
    SeqId createSequence();

    /**
     * Ensure `tokens` token slots per layer are block-backed for the
     * sequence. Grows the block table only when the current blocks do
     * not already cover the count; growth allocates (need - current)
     * blocks per layer, each checked against the budget and then the
     * injector, and rolls every granted block back on failure.
     */
    Reserve reserveTokens(SeqId seq, std::size_t tokens);

    /**
     * Claim the next token slot of (seq, layer) and return its slab
     * pointers. Capacity must have been reserved (fatal otherwise) —
     * appends cannot fail, so a fused step that passed its reservation
     * pass always completes.
     */
    TokenSlot appendToken(SeqId seq, std::size_t layer);

    /** Tokens appended so far (layer 0; layers advance in lock-step). */
    std::size_t tokens(SeqId seq) const;

    /**
     * Stride-1 attention views over every appended token of
     * (seq, layer), oldest first: the token list of the sequence's
     * referenceChunkAttention() span.
     */
    void tokenRefs(SeqId seq, std::size_t layer,
                   std::vector<KvTokenRef> &out) const;

    /** Copy a sequence's appended tokens into a contiguous KvCache. */
    KvCache materialize(SeqId seq) const;

    /** Drop a sequence's tokens and return its blocks to the free
     *  list; the handle stays valid (and empty). */
    void resetSequence(SeqId seq);

    /** resetSequence() plus forgetting the handle entirely. */
    void releaseSequence(SeqId seq);

    /** True while the handle is registered. */
    bool hasSequence(SeqId seq) const;

    std::size_t blockTokens() const { return options_.blockTokens; }
    std::size_t layers() const { return options_.layers; }
    /** Bytes of one block: blockTokens x 2h doubles. */
    std::size_t blockBytes() const { return blockDoubles_ * 8; }
    /** Budget in whole blocks (0 = unbounded). */
    std::size_t budgetBlocks() const { return budgetBlocks_; }
    std::size_t blocksInUse() const { return blocksInUse_; }
    std::size_t bytesInUse() const { return blocksInUse_ * blockBytes(); }
    /** High-water mark of bytesInUse() over the arena's lifetime. */
    std::size_t peakBytes() const { return peakBlocks_ * blockBytes(); }
    /** Allocation attempts that passed the budget check (1-based ids
     *  handed to the injector). */
    std::uint64_t allocationAttempts() const { return attempts_; }
    /** Attempts the injector failed. */
    std::uint64_t allocationFaults() const { return faultsInjected_; }

  private:
    struct Seq
    {
        /** blocks[layer][i] = block id of token range [iB, (i+1)B). */
        std::vector<std::vector<std::uint32_t>> blocks;
        /** Tokens appended per layer. */
        std::vector<std::size_t> cursor;
    };

    enum class Alloc
    {
        Ok,
        NoCapacity,
        Fault,
    };

    Alloc allocBlock(std::uint32_t &id);
    void freeBlock(std::uint32_t id);
    const Seq &seqAt(SeqId seq) const;
    Seq &seqAt(SeqId seq);
    /** Slab address of a block, materializing its chunk on demand. */
    double *blockData(std::uint32_t id);
    /** Read-side slab address; the chunk must exist (fatal if not). */
    const double *blockData(std::uint32_t id) const;

    Options options_;
    FaultInjector *faults_ = nullptr;
    std::size_t blockDoubles_ = 0; ///< doubles per block (B x 2h)
    std::size_t budgetBlocks_ = 0;
    /** Slab storage: fixed-size chunks of kChunkBlocks blocks each,
     *  appended (never reallocated) so block addresses are stable. */
    std::vector<std::unique_ptr<double[]>> chunks_;
    std::vector<std::uint32_t> freeBlocks_;
    std::uint32_t blocksCreated_ = 0;
    std::size_t blocksInUse_ = 0;
    std::size_t peakBlocks_ = 0;
    std::uint64_t attempts_ = 0;
    std::uint64_t faultsInjected_ = 0;
    std::unordered_map<SeqId, Seq> seqs_;
    SeqId nextSeq_ = 1;
};

} // namespace figlut

#endif // FIGLUT_RUNTIME_KV_ARENA_H
