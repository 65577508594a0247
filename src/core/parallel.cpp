#include "core/parallel.h"

#include <algorithm>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/logging.h"

namespace figlut {

int
resolveThreadCount(int requested)
{
    if (requested >= 1)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

bool
applyThreadAffinity(const CpuSet &cpus)
{
    if (cpus.empty())
        return false;
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    bool any = false;
    for (const int cpu : cpus) {
        if (cpu >= 0 && cpu < CPU_SETSIZE) {
            CPU_SET(cpu, &mask);
            any = true;
        }
    }
    if (!any)
        return false;
    return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) ==
           0;
#else
    return false; // pinning unsupported: run unpinned, results unchanged
#endif
}

ThreadPool::ThreadPool(int threads, CpuSet affinity)
    : affinity_(std::move(affinity))
{
    const int n = resolveThreadCount(threads);
    workers_.reserve(static_cast<std::size_t>(n));
    try {
        for (int i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // Thread spawn failed: join the workers that did start, or
        // their joinable destructors would std::terminate the process.
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        taskReady_.notify_all();
        for (auto &w : workers_)
            w.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    FIGLUT_ASSERT(task != nullptr, "null task submitted to ThreadPool");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        FIGLUT_ASSERT(!stopping_, "submit after ThreadPool shutdown");
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
    if (firstError_) {
        auto err = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::parallelForBlocked(std::size_t total, std::size_t blockSize,
                               const std::function<void(BlockRange)> &fn)
{
    FIGLUT_ASSERT(blockSize > 0, "parallelForBlocked needs blockSize > 0");
    // Items hold fn by reference, not a copy per item: wait() below
    // returns only after every item has run, so fn outlives them all.
    for (std::size_t begin = 0; begin < total; begin += blockSize) {
        const BlockRange range{begin, std::min(total, begin + blockSize)};
        submit([&fn, range] { fn(range); });
    }
    wait();
}

void
ThreadPool::workerLoop()
{
    applyThreadAffinity(affinity_);
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                // stopping_ with an empty queue: drain complete.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --inFlight_;
        }
        allDone_.notify_all();
    }
}

} // namespace figlut
