/**
 * @file
 * Admission control for the service: a bounded run-slot + wait-queue
 * gate in front of the compile pipeline. The Engine owns one, so every
 * front end passes it.
 *
 * The daemon is thread-per-connection, but compilation is heavy (SMT
 * solves, Monte-Carlo simulation on the shared runtime::Executor
 * pool), so unbounded concurrency would just thrash the worker pool
 * and blow every deadline at once. The gate admits at most
 * `max_concurrent` requests into the pipeline; up to `max_queue` more
 * may wait for a slot; anything beyond that is *rejected immediately*
 * with a structured response — under overload the service degrades to
 * fast, honest rejections instead of unbounded latency.
 *
 * A waiting request's deadline keeps ticking: Enter() gives up with
 * kTimedOut when the request's deadline passes before a slot frees,
 * so queue time is never hidden from the deadline accounting.
 *
 * Telemetry: `svc.queue.depth` / `svc.inflight` gauges track the
 * current state, and `svc.queue.depth_hwm` / `svc.inflight_hwm` keep
 * the high watermarks (Gauge::UpdateMax) an operator alerts on.
 */
#ifndef XTALK_SERVICE_ADMISSION_H
#define XTALK_SERVICE_ADMISSION_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

namespace xtalk::service {

/** Capacity knobs for AdmissionGate. */
struct AdmissionOptions {
    /** Requests allowed inside the pipeline at once (>= 0; 0 admits
     *  nothing — useful to test the rejection path end to end). */
    int max_concurrent = 4;
    /** Requests allowed to wait for a slot beyond the running ones. */
    int max_queue = 16;
};

/** Outcome of one admission attempt. */
enum class Admission {
    kAdmitted,  ///< A run slot is held; call Leave() when done.
    kRejected,  ///< Queue full — answer "rejected" immediately.
    kTimedOut,  ///< Deadline expired while waiting for a slot.
};

/** Bounded run-slot + wait-queue gate (see file comment). */
class AdmissionGate {
  public:
    explicit AdmissionGate(AdmissionOptions options = {});

    /**
     * Try to enter the pipeline: returns kAdmitted once a run slot is
     * held (possibly after waiting), kRejected immediately when the
     * wait queue is full, kTimedOut when @p deadline passed first.
     * Every kAdmitted must be paired with Leave().
     */
    Admission Enter(std::optional<std::chrono::steady_clock::time_point>
                        deadline = std::nullopt);

    /** Release a run slot taken by a successful Enter(). */
    void Leave();

    /**
     * Close the gate for shutdown: every blocked Enter() — including
     * deadline-free waiters that would otherwise sleep forever — wakes
     * and returns kRejected, and every later Enter() is rejected
     * immediately. Idempotent. Without this, a daemon drain that joins
     * connection threads can hang on a waiter no slot will ever reach
     * (e.g. max_concurrent == 0).
     */
    void Close();

    int running() const;
    int waiting() const;
    uint64_t admitted() const;
    uint64_t rejected() const;
    uint64_t timed_out() const;

  private:
    void PublishDepthLocked();

    AdmissionOptions options_;
    mutable std::mutex mutex_;
    std::condition_variable slot_free_;
    int running_ = 0;
    int waiting_ = 0;
    bool closed_ = false;
    uint64_t admitted_ = 0;
    uint64_t rejected_ = 0;
    uint64_t timed_out_ = 0;
};

}  // namespace xtalk::service

#endif  // XTALK_SERVICE_ADMISSION_H
