#include "shard/sharded_executor.h"

#include <algorithm>

#include "common/logging.h"

namespace figlut {
namespace {

/**
 * Worker budget of one shard group: an explicit total splits evenly
 * (at least one worker each); auto sizes the group to its CPU set
 * when pinned, else to an equal split of the hardware concurrency.
 */
int
groupThreadBudget(int totalThreads, int shards, const CpuSet &cpus)
{
    if (totalThreads > 0)
        return std::max(1, totalThreads / std::max(1, shards));
    if (!cpus.empty())
        return static_cast<int>(cpus.size());
    return std::max(1, resolveThreadCount(0) / std::max(1, shards));
}

} // namespace

ShardedExecutor::ShardedExecutor(const ShardPlan &plan, int threads,
                                 std::vector<CpuSet> cpuSets)
    : plan_(&plan), cpuSets_(std::move(cpuSets))
{
    const auto shards = static_cast<std::size_t>(plan.shards());
    cpuSets_.resize(shards); // missing entries = unpinned
    contexts_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        const int budget = groupThreadBudget(threads, plan.shards(),
                                             cpuSets_[s]);
        if (s == 0)
            threadsPerShard_ = budget;
        contexts_.push_back(
            std::make_unique<ExecutionContext>(budget, cpuSets_[s]));
    }
    leaders_.reserve(shards);
    try {
        for (std::size_t s = 0; s < shards; ++s)
            leaders_.emplace_back([this, s] { leaderLoop(s); });
    } catch (...) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        jobReady_.notify_all();
        for (auto &leader : leaders_)
            leader.join();
        throw;
    }
    // Wait until every leader has applied (or skipped) its affinity,
    // so pinnedGroups() is stable from here on.
    std::unique_lock<std::mutex> lock(mutex_);
    jobDone_.wait(lock, [this, shards] { return started_ == shards; });
}

ShardedExecutor::~ShardedExecutor()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    jobReady_.notify_all();
    for (auto &leader : leaders_)
        leader.join();
}

MatrixD
ShardedExecutor::run(std::size_t layer, LayerOp op, const MatrixD &x,
                     const LutGemmConfig &config,
                     LutGemmCounters *counters)
{
    const ShardedOperand &operand = plan_->operand(layer, op);
    FIGLUT_ASSERT(!operand.ranges.empty(),
                  "sharded operand has no row ranges");
    const std::size_t rows = operand.ranges.back().end;
    MatrixD y(rows, x.cols(), 0.0);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        job_ = Job{layer, op, &x, &config, &y};
        remaining_ = leaders_.size();
        ++generation_;
    }
    jobReady_.notify_all();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        jobDone_.wait(lock, [this] { return remaining_ == 0; });
        if (firstError_) {
            auto err = firstError_;
            firstError_ = nullptr;
            lock.unlock();
            std::rethrow_exception(err);
        }
    }

    if (counters != nullptr) {
        // Canonical (execution-invariant) accounting: the closed
        // forms read only the shape scalars, so a payload-free tensor
        // describing the FULL operand reproduces the unsharded call's
        // counters exactly. Per-shard LUT rebuilds are deliberately
        // not counted — they are executor overhead, priced by the
        // simulator's interconnect/overhead term, not kernel work.
        const BcqTensor &slice0 = operand.tensors.front();
        BcqTensor shape;
        shape.rows = rows;
        shape.cols = slice0.cols;
        shape.bits = slice0.bits;
        shape.groupSize = slice0.groupSize;
        shape.hasOffset = slice0.hasOffset;
        addLutGemmClosedFormCounters(shape, config, x.cols(),
                                     *counters);
    }
    return y;
}

void
ShardedExecutor::leaderLoop(std::size_t shard)
{
    const bool pinned = applyThreadAffinity(cpuSets_[shard]);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (pinned)
            ++pinnedGroups_;
        ++started_;
    }
    jobDone_.notify_all();

    uint64_t seen = 0;
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            jobReady_.wait(lock, [this, seen] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
            job = job_;
        }
        try {
            runShard(shard, job);
        } catch (...) {
            std::unique_lock<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --remaining_;
        }
        jobDone_.notify_all();
    }
}

void
ShardedExecutor::runShard(std::size_t shard, const Job &job)
{
    const ShardedOperand &operand = plan_->operand(job.layer, job.op);
    const ShardRowRange range = operand.ranges[shard];
    if (range.empty())
        return; // more shards than rows: nothing owned here
    const BcqTensor &weights = operand.tensors[shard];
    ExecutionContext *ctx = contexts_[shard].get();
    // Per-shard counters are discarded (nullptr): run() adds the
    // full-tensor closed form once instead. Keys ride along only for
    // the Simd backend — Reference rejects pre-packed keys by
    // contract.
    const bool useKeys = !operand.keys.empty() &&
                         job.config->backend == LutGemmBackend::Simd;
    MatrixD slice =
        useKeys ? lutGemm(weights, *job.x, *job.config,
                          operand.keys[shard], nullptr, ctx)
                : lutGemm(weights, *job.x, *job.config, nullptr, ctx);
    // Concat combine: this shard owns output rows [begin, end) and no
    // other shard touches them.
    MatrixD &y = *job.y;
    for (std::size_t r = 0; r < slice.rows(); ++r)
        for (std::size_t b = 0; b < slice.cols(); ++b)
            y(range.begin + r, b) = slice(r, b);
}

} // namespace figlut
