/**
 * @file
 * Long-lived execution resources for the functional kernels.
 *
 * Every Simd-backend lutGemm() call needs a ThreadPool
 * and a set of scratch buffers (LUT arenas, column tables, staging
 * slots). Constructing those per call is correct but wasteful under
 * repeated traffic: worker spawn/join and arena reallocation dominate
 * small GEMMs. An ExecutionContext owns both across calls — the
 * serving-loop discipline the serve Engine (serve/engine.h) is built
 * on. Kernels accept an optional ExecutionContext*; with none
 * supplied they fall back to per-call construction, so one-shot
 * callers are unaffected. The pool is spawned on the first call that
 * resolves to two or more workers: single-worker calls run on the
 * caller, so a threads = 1 client never starts a worker thread.
 *
 * Ownership rules (see DESIGN.md):
 *  - An ExecutionContext is NOT thread-safe: one context serves one
 *    client thread. ThreadPool::wait() and the captured first
 *    exception are pool-global, so two concurrent kernels sharing a
 *    pool would entangle their completion and error states. Clients
 *    that dispatch kernels from several threads create one context
 *    per thread.
 *  - The context must outlive every kernel call it is passed to; the
 *    kernels never retain it beyond the call.
 *  - The workspace slot holds one kernel-defined scratch type at a
 *    time. Switching types destroys the previous workspace (buffers
 *    regrow on the next call); alternating kernels that want distinct
 *    scratch should use distinct contexts.
 */

#ifndef FIGLUT_CORE_EXECUTION_CONTEXT_H
#define FIGLUT_CORE_EXECUTION_CONTEXT_H

#include <cstdint>
#include <memory>
#include <typeinfo>

#include "core/parallel.h"

namespace figlut {

/** Reusable ThreadPool + kernel workspace for repeated kernel calls. */
class ExecutionContext
{
  public:
    /**
     * @param threads default worker budget for pool() requests that do
     *                not name a count; <= 0 = hardware concurrency.
     * @param affinity optional CPU set every spawned pool worker pins
     *                 to (empty = unpinned). Used by the shard layer
     *                 to keep a worker group on one NUMA node; pinning
     *                 failures are silent and never affect results.
     */
    explicit ExecutionContext(int threads = 0, CpuSet affinity = {});
    ~ExecutionContext();

    ExecutionContext(const ExecutionContext &) = delete;
    ExecutionContext &operator=(const ExecutionContext &) = delete;

    /** Configured default worker budget (<= 0 = hardware). */
    int threads() const { return threads_; }

    /** CPU set pool workers pin to (empty = unpinned). */
    const CpuSet &affinity() const { return affinity_; }

    /**
     * The owned pool, spawned lazily with at least `workers` threads
     * (<= 0 selects the context's configured budget). A live pool
     * that is already large enough is reused as-is — surplus workers
     * idle harmlessly on the queue — while a larger request joins the
     * old pool and spawns a replacement, so the pool size ratchets up
     * to the largest demand seen.
     */
    ThreadPool &pool(int workers = 0);

    /** Whether a pool has been spawned and is still alive. */
    bool hasPool() const { return pool_ != nullptr; }

    /** Workers in the live pool (0 = none spawned yet). */
    int poolThreads() const { return pool_ ? pool_->threadCount() : 0; }

    /** Times a pool has been spawned (reuse telemetry for tests/bench). */
    uint64_t poolSpawns() const { return poolSpawns_; }

    /**
     * Lazily-created reusable workspace of type T, default-constructed
     * on first use and then returned by reference on every subsequent
     * call with the same T. The slot is keyed by typeid: requesting a
     * different type destroys the previous workspace first. T must be
     * default-constructible; the kernels keep their scratch structs
     * internal and instantiate this in their own translation unit.
     */
    template <typename T>
    T &
    workspace()
    {
        if (slot_.ptr == nullptr || *slot_.type != typeid(T)) {
            slot_.reset();
            slot_.ptr = new T();
            slot_.type = &typeid(T);
            slot_.destroy = [](void *p) { delete static_cast<T *>(p); };
        }
        return *static_cast<T *>(slot_.ptr);
    }

  private:
    /** Type-erased single-occupancy workspace slot. */
    struct Slot
    {
        void *ptr = nullptr;
        void (*destroy)(void *) = nullptr;
        const std::type_info *type = nullptr;

        void
        reset()
        {
            if (ptr != nullptr)
                destroy(ptr);
            ptr = nullptr;
            destroy = nullptr;
            type = nullptr;
        }

        ~Slot() { reset(); }
    };

    int threads_;
    CpuSet affinity_;
    std::unique_ptr<ThreadPool> pool_;
    uint64_t poolSpawns_ = 0;
    Slot slot_;
};

} // namespace figlut

#endif // FIGLUT_CORE_EXECUTION_CONTEXT_H
