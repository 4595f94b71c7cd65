#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>

#include "common/error.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"

namespace xtalk::runtime {

namespace {

std::atomic<int> g_default_threads_override{0};

int
HardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/** Parse XTALK_THREADS; 0 / unset / garbage all mean "no preference". */
int
EnvThreads()
{
    const char* env = std::getenv("XTALK_THREADS");
    if (env == nullptr || *env == '\0') {
        return 0;
    }
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed <= 0 || parsed > 4096) {
        return 0;
    }
    return static_cast<int>(parsed);
}

/**
 * Gauge refresh shared by enqueue/dequeue sites. High-watermark
 * semantics: a last-write-wins Set() here almost always snapshots the
 * drained pool (the final dequeue writes last), which made the gauges
 * read 0 in every report. Peak depth/occupancy is the number that
 * actually describes the run; see docs/OBSERVABILITY.md.
 */
void
PublishPoolGauges(size_t queue_depth, int busy_workers)
{
    telemetry::GetGauge("runtime.pool.queue_depth")
        .UpdateMax(static_cast<double>(queue_depth));
    telemetry::GetGauge("runtime.pool.busy_workers")
        .UpdateMax(static_cast<double>(busy_workers));
}

}  // namespace

int
ThreadPool::DefaultThreadCount()
{
    const int override = g_default_threads_override.load();
    if (override > 0) {
        return override;
    }
    const int env = EnvThreads();
    if (env > 0) {
        return env;
    }
    return HardwareThreads();
}

void
ThreadPool::SetDefaultThreadCount(int num_threads)
{
    XTALK_REQUIRE(num_threads >= 0,
                  "thread count must be >= 0, got " << num_threads);
    g_default_threads_override.store(num_threads);
}

std::shared_ptr<ThreadPool>
ThreadPool::Shared()
{
    static std::shared_ptr<ThreadPool> pool =
        std::make_shared<ThreadPool>(DefaultThreadCount());
    return pool;
}

ThreadPool::ThreadPool(int num_threads)
    : created_(std::chrono::steady_clock::now())
{
    XTALK_REQUIRE(num_threads >= 0,
                  "thread count must be >= 0, got " << num_threads);
    if (num_threads == 0) {
        num_threads = DefaultThreadCount();
    }
    if (telemetry::Enabled()) {
        telemetry::GetGauge("runtime.pool.threads")
            .Set(static_cast<double>(num_threads));
    }
    workers_.reserve(num_threads);
    for (int i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    Shutdown();
}

void
ThreadPool::Enqueue(std::function<void()> job)
{
    // Capture the submitter's trace context so work executed on a pool
    // worker — executor chunks, portfolio members, cache fills — still
    // journals and traces under the request that submitted it. Only
    // wrap when there is a context: untraced submitters keep the
    // original job unwrapped (no extra allocation, no TLS writes).
    const telemetry::TraceContext context =
        telemetry::CurrentTraceContext();
    if (context.valid()) {
        job = [context, inner = std::move(job)] {
            telemetry::ScopedTraceContext scope(context);
            inner();
        };
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        XTALK_REQUIRE(!shutdown_, "ThreadPool::Submit after Shutdown");
        queue_.push_back(std::move(job));
        if (telemetry::Enabled()) {
            telemetry::GetCounter("runtime.pool.jobs").Add(1);
            PublishPoolGauges(queue_.size(), busy_workers_);
        }
    }
    work_available_.notify_one();
}

void
ThreadPool::WorkerLoop(int worker_index)
{
    // Registering the worker name makes the Chrome trace export label
    // this thread's lane ("pool-worker-N") via thread_name metadata.
    telemetry::SetCurrentThreadName("pool-worker-" +
                                    std::to_string(worker_index));
    using Clock = std::chrono::steady_clock;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(
                lock, [this] { return shutdown_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // Shutdown with a drained queue.
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++busy_workers_;
            if (telemetry::Enabled()) {
                PublishPoolGauges(queue_.size(), busy_workers_);
            }
        }
        const Clock::time_point job_start = Clock::now();
        {
            // One complete trace event per executed job: the busy
            // segments of this worker's timeline (gaps = idle). Also
            // the root profiler frame for worker-side work.
            telemetry::ScopedSpan span("runtime.pool.job", "pool");
            job();  // Exceptions land in the job's promise, not here.
        }
        const double job_us = std::chrono::duration<double, std::micro>(
                                  Clock::now() - job_start)
                                  .count();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --busy_workers_;
            busy_us_ += job_us;
            if (telemetry::Enabled()) {
                PublishPoolGauges(queue_.size(), busy_workers_);
                telemetry::GetGauge("runtime.pool.utilization")
                    .Set(UtilizationLocked());
            }
        }
    }
}

void
ThreadPool::Shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_) {
            return;
        }
        shutdown_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
}

double
ThreadPool::UtilizationLocked() const
{
    const double age_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - created_)
                              .count();
    const double capacity_us =
        age_us * static_cast<double>(workers_.size());
    if (capacity_us <= 0.0) {
        return 0.0;
    }
    return std::min(1.0, busy_us_ / capacity_us);
}

double
ThreadPool::Utilization() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return UtilizationLocked();
}

}  // namespace xtalk::runtime
