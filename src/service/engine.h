/**
 * @file
 * The service engine: one entry point that executes a ServiceRequest
 * and produces a ServiceResponse.
 *
 * Both frontends are thin shells over this class — `xtalkc` builds one
 * request from its flags and calls Handle() once; `xtalkd` parses
 * requests off a socket and calls Handle() concurrently — so a request
 * compiles bit-identically whichever door it came through. Handle()
 * never throws: failures are classified (common/status.h) into the
 * response's status field.
 *
 * The engine owns admission control (admission.h): every compile takes
 * a run slot from the engine's gate, possibly after waiting for one,
 * and the wait is the request's first budget phase. `ping`, `stats`
 * and `shutdown` bypass the gate and answer from the engine's own
 * gate and cache, so they stay live while compiles are saturated.
 *
 * The engine owns the characterization snapshot cache: concurrent
 * requests that need the same on-the-fly measurement share one
 * single-flight computation (see snapshot_cache.h). Deadlines are
 * wired into the SMT budget machinery — a request with deadline_ms
 * set gets XtalkSchedulerOptions::total_budget_ms clamped to the time
 * remaining, so a slow solve degrades (xtalk -> greedy -> parallel)
 * instead of blowing the deadline. Requests without a deadline take
 * the exact CLI path: no budget is touched, results stay
 * bit-identical under any load.
 *
 * Thread safety: Handle() is safe to call from many threads; shared
 * state is the gate and the cache (both internally locked) and the
 * global telemetry registries (already thread-safe).
 */
#ifndef XTALK_SERVICE_ENGINE_H
#define XTALK_SERVICE_ENGINE_H

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "service/admission.h"
#include "service/api.h"
#include "service/snapshot_cache.h"
#include "telemetry/ledger.h"

namespace xtalk::service {

/** Engine-level knobs (per-request knobs live in ServiceRequest). */
struct EngineOptions {
    /** Snapshot-cache capacity (completed entries; 0 = unbounded). */
    size_t cache_entries = 64;
    /** Run slots and wait-queue bound in front of every compile. */
    AdmissionOptions admission;
};

/** Executes requests; shared by the CLI and the daemon. */
class Engine {
  public:
    explicit Engine(EngineOptions options = {});

    /**
     * Execute @p request and return its response; never throws.
     * @p deadline is the absolute wall-clock cutoff; when absent but
     * request.deadline_ms > 0, it is entry time + deadline_ms. A
     * compile first waits for a run slot: a full queue answers
     * "rejected" (journal `svc.reject`) and a deadline that passes
     * while queued answers "timeout" (`svc.timeout`), both without
     * `svc.start`. Every other request emits `svc.start` / `svc.done`
     * and the `svc.requests` / `svc.request_ms` metrics.
     */
    ServiceResponse Handle(
        const ServiceRequest& request,
        std::optional<std::chrono::steady_clock::time_point> deadline =
            std::nullopt);

    /**
     * Close the gate for shutdown: queued and later compiles are
     * rejected (see AdmissionGate::Close). Idempotent.
     */
    void Close() { gate_.Close(); }

    /** The snapshot cache (exposed for tests and the daemon's exit
     *  summary). */
    const SnapshotCache& cache() const { return cache_; }

  private:
    ServiceResponse RunCompile(
        const ServiceRequest& request,
        std::optional<std::chrono::steady_clock::time_point> deadline,
        std::vector<ServicePhase>* phases);

    EngineOptions options_;
    SnapshotCache cache_;
    AdmissionGate gate_;
};

/**
 * Fill a run-ledger record from one request/response pair: config
 * hash, device, characterization snapshot id, scheduler, degradation,
 * and the exit code the status maps to. The caller stamps run_id/when
 * and appends.
 */
void FillRunRecord(const ServiceRequest& request,
                   const ServiceResponse& response,
                   telemetry::RunRecord* record);

}  // namespace xtalk::service

#endif  // XTALK_SERVICE_ENGINE_H
