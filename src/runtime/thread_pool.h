/**
 * @file
 * Fixed-size worker pool for the execution runtime.
 *
 * Deliberately simple: one mutex-protected FIFO queue, N workers parked
 * on a condition variable, no work stealing. The workloads this pool
 * exists for (Monte-Carlo shot chunks, SRB sequence jobs, experiment
 * grid points) are coarse — milliseconds to seconds each — so queue
 * contention is irrelevant and a predictable FIFO keeps the execution
 * order easy to reason about.
 *
 * Thread-count resolution (see docs/PARALLELISM.md): an explicit count
 * passed to the constructor wins; otherwise DefaultThreadCount() applies
 * the precedence `SetDefaultThreadCount() (e.g. xtalkc --threads)` >
 * `XTALK_THREADS` environment variable > `hardware_concurrency()`.
 *
 * Exceptions thrown by a job are captured in the job's future and
 * rethrown from Future::get() at the join point; they never terminate a
 * worker thread.
 */
#ifndef XTALK_RUNTIME_THREAD_POOL_H
#define XTALK_RUNTIME_THREAD_POOL_H

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace xtalk::runtime {

/** Fixed-size FIFO thread pool (no work stealing). */
class ThreadPool {
  public:
    /**
     * Spawn @p num_threads workers; 0 means DefaultThreadCount().
     * Requires num_threads >= 0.
     */
    explicit ThreadPool(int num_threads = 0);

    /** Joins all workers (implicit Shutdown). */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Enqueue a callable; the returned future yields its result or
     * rethrows its exception. Throws xtalk::Error after Shutdown().
     */
    template <typename F>
    auto
    Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        Enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Drain the queue, stop accepting work, and join every worker.
     * Idempotent; called by the destructor.
     */
    void Shutdown();

    int num_threads() const { return static_cast<int>(workers_.size()); }

    /**
     * Fraction of the pool's capacity spent executing jobs since
     * construction: total busy time / (pool age x worker count), in
     * [0, 1]. Published to the `runtime.pool.utilization` gauge as
     * each job completes (last write wins, so the stats snapshot
     * carries the value as of the final job), and useful directly in
     * tests and tools.
     */
    double Utilization() const;

    /**
     * Resolved default worker count: override > XTALK_THREADS env >
     * std::thread::hardware_concurrency() (min 1).
     */
    static int DefaultThreadCount();

    /**
     * Process-wide override for DefaultThreadCount() (the `--threads`
     * flag); 0 clears it. Affects pools created afterwards only.
     */
    static void SetDefaultThreadCount(int num_threads);

    /**
     * Lazily created process-wide pool sized by DefaultThreadCount() at
     * first use. Executors without an explicit thread count share it so
     * nested library layers do not multiply worker threads.
     */
    static std::shared_ptr<ThreadPool> Shared();

  private:
    void Enqueue(std::function<void()> job);
    void WorkerLoop(int worker_index);
    /** Utilization with mutex_ already held. */
    double UtilizationLocked() const;

    mutable std::mutex mutex_;
    std::condition_variable work_available_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    int busy_workers_ = 0;
    bool shutdown_ = false;
    /** Construction time; denominator of Utilization(). */
    std::chrono::steady_clock::time_point created_;
    /** Total wall time workers spent inside jobs, microseconds. */
    double busy_us_ = 0.0;
};

}  // namespace xtalk::runtime

#endif  // XTALK_RUNTIME_THREAD_POOL_H
