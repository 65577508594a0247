/**
 * @file
 * Host-side work-queue parallelism for the functional kernels.
 *
 * The simulator's hot loops (LUT-GEMM over large M) are embarrassingly
 * parallel across output rows. ThreadPool provides a small std::thread
 * work queue; parallelForBlocked() carves an index space into
 * fixed-size block work items (the M-tiles of the Simd LUT-GEMM
 * traversal) and executes them across the pool.
 *
 * Tasks that throw are captured: the first exception is rethrown from
 * wait() on the submitting thread, so fatal()/panic() behave the same
 * as in serial code.
 */

#ifndef FIGLUT_CORE_PARALLEL_H
#define FIGLUT_CORE_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace figlut {

/** Half-open index range [begin, end) processed by one work item. */
struct BlockRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * Resolve a thread-count knob: values >= 1 are taken as-is, anything
 * else (0 or negative = "auto") maps to the hardware concurrency,
 * never less than 1.
 */
int resolveThreadCount(int requested);

/**
 * An explicit CPU set for thread pinning (logical CPU ids as exposed
 * by the OS). Empty = no pinning requested.
 */
using CpuSet = std::vector<int>;

/**
 * Pin the calling thread to `cpus`. Returns true when the affinity
 * mask was applied; an empty set, a non-Linux platform, or a rejected
 * syscall all return false and leave the thread unpinned — pinning is
 * strictly an optimization and never affects results.
 */
bool applyThreadAffinity(const CpuSet &cpus);

/** Fixed-size pool of worker threads draining a FIFO work queue. */
class ThreadPool
{
  public:
    /**
     * Spawn workers; threads <= 0 selects resolveThreadCount(0). A
     * non-empty `affinity` pins every worker to that CPU set (one
     * worker group = one set; per-NUMA-node placement is composed by
     * ShardedExecutor from several pools).
     */
    explicit ThreadPool(int threads = 0, CpuSet affinity = {});

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers_.size()); }

    /** The CPU set every worker was asked to pin to (may be empty). */
    const CpuSet &affinity() const { return affinity_; }

    /** Enqueue one work item. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted item has finished. Rethrows the
     * first exception raised by a task (later ones are dropped).
     */
    void wait();

    /**
     * Split [0, total) into ceil(total / blockSize) block work items
     * and run fn on each across the pool; returns when all are done
     * (including items submitted, throws forwarded like wait()).
     */
    void parallelForBlocked(std::size_t total, std::size_t blockSize,
                            const std::function<void(BlockRange)> &fn);

  private:
    void workerLoop();

    CpuSet affinity_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0; ///< queued + currently executing
    std::exception_ptr firstError_;
    bool stopping_ = false;
};

} // namespace figlut

#endif // FIGLUT_CORE_PARALLEL_H
