/**
 * @file
 * Row-parallel sharded LUT-GEMM execution over worker groups.
 *
 * A ShardedExecutor owns one long-lived leader thread per shard, each
 * with its own ExecutionContext (ThreadPool + workspace) — contexts
 * are single-client, so concurrent per-shard kernels need disjoint
 * resources. Leaders (and the pool workers they spawn) pin to the CPU
 * set planned for their shard (shard/numa.h): on a multi-node machine
 * each worker group stays on one NUMA node next to its key slab.
 *
 * run() executes one layer GEMM: every shard runs an ordinary
 * lutGemm() over its row slice (Simd consumes the sliced key slab;
 * Reference gathers from the sliced planes), and the
 * combine step is pure concatenation — each shard writes its disjoint
 * output-row range of the shared result. No output element is touched
 * by more than one shard and per-row accumulation order is the
 * unsharded kernel's, so the result is bit-identical to a single
 * unsharded call by construction, for both backends.
 *
 * Counters stay execution-invariant: a sharded run rebuilds each
 * (column, group) LUT set once per shard — executor overhead that the
 * simulator's interconnect/overhead model prices — so the per-shard
 * counters are discarded and the full-tensor closed form
 * (addLutGemmClosedFormCounters) is added exactly once. Reported
 * counters are bit-identical to shards=1.
 */

#ifndef FIGLUT_SHARD_SHARDED_EXECUTOR_H
#define FIGLUT_SHARD_SHARDED_EXECUTOR_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/execution_context.h"
#include "core/lut_gemm.h"
#include "shard/numa.h"
#include "shard/shard_plan.h"

namespace figlut {

/** Executes a ShardPlan's GEMMs across per-shard worker groups. */
class ShardedExecutor
{
  public:
    /**
     * @param plan    sliced operands; must outlive the executor.
     * @param threads total worker budget across all shards (<= 0 =
     *                auto: each group sizes to its CPU set, or an
     *                equal split of the hardware concurrency when
     *                unpinned). An explicit count is split evenly.
     * @param cpuSets per-shard CPU sets (normally
     *                shardCpuSets(detectNumaTopology(), shards));
     *                empty, or an empty entry, leaves that group
     *                unpinned.
     */
    ShardedExecutor(const ShardPlan &plan, int threads,
                    std::vector<CpuSet> cpuSets = {});

    /** Joins all leader threads (and their worker pools). */
    ~ShardedExecutor();

    ShardedExecutor(const ShardedExecutor &) = delete;
    ShardedExecutor &operator=(const ShardedExecutor &) = delete;

    int shards() const { return plan_->shards(); }

    /** Leader threads whose affinity mask was accepted by the OS. */
    std::size_t pinnedGroups() const { return pinnedGroups_; }

    /** Worker budget each shard group runs with. */
    int threadsPerShard() const { return threadsPerShard_; }

    /**
     * Run one sharded layer GEMM: y = W x for the plan's (layer, op)
     * operand against activations x (N x B), returning the full M x B
     * result. Counters (optional) accumulate the canonical unsharded
     * closed form exactly once. Throws (via the leaders' captured
     * first exception) exactly like the unsharded kernel would.
     */
    MatrixD run(std::size_t layer, LayerOp op, const MatrixD &x,
                const LutGemmConfig &config, LutGemmCounters *counters);

  private:
    /** One published unit of work, consumed by every leader. */
    struct Job
    {
        std::size_t layer = 0;
        LayerOp op = LayerOp::QkvProj;
        const MatrixD *x = nullptr;
        const LutGemmConfig *config = nullptr;
        MatrixD *y = nullptr;
    };

    void leaderLoop(std::size_t shard);
    void runShard(std::size_t shard, const Job &job);

    const ShardPlan *plan_;
    std::vector<CpuSet> cpuSets_;
    int threadsPerShard_ = 1;
    std::size_t pinnedGroups_ = 0;

    std::vector<std::unique_ptr<ExecutionContext>> contexts_;
    std::vector<std::thread> leaders_;

    std::mutex mutex_;
    std::condition_variable jobReady_;
    std::condition_variable jobDone_;
    Job job_;
    uint64_t generation_ = 0;   ///< bumps once per published job
    std::size_t remaining_ = 0; ///< leaders still running the job
    std::size_t started_ = 0;   ///< leaders up (startup barrier)
    std::exception_ptr firstError_;
    bool stopping_ = false;
};

} // namespace figlut

#endif // FIGLUT_SHARD_SHARDED_EXECUTOR_H
