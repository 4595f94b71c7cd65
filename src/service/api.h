/**
 * @file
 * The unified request/response API of the xtalk service layer.
 *
 * One versioned pair of structs describes every piece of work the
 * toolchain can do — compile, schedule, simulate — whether the caller
 * is the `xtalkc` command line, the `xtalkd` daemon, or an in-process
 * embedder. Before this module each frontend carried its own knob set
 * (CLI flags, CompilerOptions, PassManagerOptions, RunSpec, env vars);
 * ServiceRequest subsumes them so a request means the same thing on
 * every path, and the CLI and the daemon are bit-identical by
 * construction: both call service::Engine::Handle on the same struct.
 *
 * Wire format (schema ids pinned below): one JSON object per line,
 * newline-delimited — see docs/SERVICE.md for the field catalogue and
 * the protocol walkthrough.
 *
 *   {"schema":"xtalk.request.v1","id":"r1","kind":"compile",
 *    "qasm":"OPENQASM 2.0; ...","device":"poughkeepsie",
 *    "scheduler":"xtalk","omega":0.5,"deadline_ms":30000}
 *
 *   {"schema":"xtalk.response.v1","id":"r1","status":"ok",
 *    "qasm":"...","scheduler":"XtalkSched","degradation":"none",
 *    "characterization_id":"c0ffee12","cache_hit":true,
 *    "trace":{"id":"4bf9…32 hex…","origin":"service"},
 *    "timing":{"queue_ms":0.2,"run_ms":31.5,
 *              "phases":[{"phase":"parse","ms":0.4},…]}}
 *
 * Requests may carry a `trace` object ({"id":<32 hex>,"span":<16 hex>})
 * to propagate a caller-minted trace context through the service; when
 * absent the service mints one. The response echoes the id with its
 * origin. See docs/OBSERVABILITY.md for the propagation rules.
 *
 * Timing is the only wall-clock-dependent part of a response;
 * ToJson(false) omits it so tests can assert two runs of one request
 * are byte-identical. A service-minted trace id is wall-clock-seeded
 * randomness by the same argument, so the `trace` object appears in
 * ToJson(false) only when the client supplied the id (origin
 * "client"); service-minted ids live only in the timed projection.
 */
#ifndef XTALK_SERVICE_API_H
#define XTALK_SERVICE_API_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace xtalk::service {

/** Wire schema identifiers (the version gate of the protocol). */
inline constexpr const char* kRequestSchema = "xtalk.request.v1";
inline constexpr const char* kResponseSchema = "xtalk.response.v1";

/**
 * One unit of work for the service. Defaults reproduce `xtalkc` with
 * no flags: the default device, noise-aware layout, XtalkSched at
 * omega 0.5, default pipeline, no simulation, no deadline.
 */
struct ServiceRequest {
    /** Client-chosen correlation id, echoed verbatim in the response. */
    std::string id;
    /** "compile" (the work kind), "ping", "stats", or "shutdown". */
    std::string kind = "compile";

    /**
     * Caller-minted trace id, 32 lowercase hex chars (128 bits), from
     * the wire object {"trace":{"id":…,"span":…}}. Empty = none; the
     * service mints one on accept. Must parse (and be non-zero) when
     * present — see telemetry/trace_context.h.
     */
    std::string trace_id;
    /** Caller's span id (64 bits; 0 = unset). Children span from it. */
    uint64_t span_id = 0;

    /** OpenQASM 2.0 source of the logical circuit (compile only). */
    std::string qasm;

    /** Built-in device name: poughkeepsie | johannesburg | boeblingen. */
    std::string device = "poughkeepsie";
    /** Path to a device spec file; overrides `device` when non-empty. */
    std::string device_file;

    /** Layout policy name (see LayoutPolicyName). */
    std::string layout = "noise-aware";
    /** Scheduler policy key: a portfolio member key or "portfolio"
     *  (see scheduler/portfolio.h). */
    std::string scheduler = "xtalk";
    /**
     * Portfolio member keys to race, in tie-break rank order (see
     * PortfolioRegistry). Only meaningful with scheduler "portfolio";
     * empty = the default member list.
     */
    std::vector<std::string> schedulers;
    /** Crosstalk weight factor omega in [0, 1]. */
    double omega = 0.5;
    /** Custom pass pipeline by name; empty = the default Figure 2 flow. */
    std::vector<std::string> passes;
    /** Run inter-pass verification after every transform pass. */
    bool verify_passes = false;

    /** Inline characterization data (characterization/io.h format). */
    std::string characterization_text;
    /** Path to a characterization file (exclusive with the text form). */
    std::string characterization_path;
    /** Persist the (possibly freshly measured) characterization here. */
    std::string save_characterization_path;

    /** Execute on the noisy simulator for this many shots (0 = skip). */
    int simulate_shots = 0;
    /** Include the human-readable schedule report in the response. */
    bool want_report = false;

    /**
     * Wall-clock deadline for the whole request, milliseconds from the
     * moment the service accepts it; 0 = none. The deadline bounds the
     * SMT solver budget (XtalkSchedulerOptions::total_budget_ms) and is
     * checked between phases; a request whose deadline expires while
     * queued or between phases gets a "timeout" response. Requests
     * without a deadline run exactly like the CLI — bit-identical.
     */
    int deadline_ms = 0;

    /**
     * Structural validation (unknown kind/policy names, omega range,
     * conflicting characterization sources, negative counts). False
     * with a description in @p error when the request is malformed;
     * such requests are answered with status "error" without running.
     */
    bool Validate(std::string* error) const;

    /** True when some requested pass consumes measured crosstalk data
     *  (drives on-the-fly characterization and the snapshot cache). */
    bool NeedsCharacterization() const;

    /**
     * Stable hash of every compilation-relevant field, for ledger
     * records ("did the config change or did the device drift?").
     * Output/verbosity fields are deliberately excluded.
     */
    std::string ConfigHash() const;

    /** One-line wire form (schema xtalk.request.v1, no newline). */
    std::string ToJson() const;

    /**
     * Parse one wire line. False (with @p error) on malformed JSON, a
     * wrong/missing schema, or wrongly typed fields. Unknown fields
     * are ignored (forward compatibility); absent fields keep their
     * defaults.
     */
    static bool FromJson(const std::string& text, ServiceRequest* out,
                         std::string* error = nullptr);
};

/**
 * One portfolio member's race outcome as reported on the wire (the
 * projection of xtalk::PortfolioMemberOutcome). `wall_ms` is the only
 * wall-clock-dependent field and is omitted from the deterministic
 * ToJson(false) projection, like the response's `timing` object.
 */
struct ServicePortfolioOutcome {
    /** Member key ("serial", "parallel", "greedy", "anneal", ...). */
    std::string member;
    /** Display name of the scheduler the member ran. */
    std::string scheduler;
    /** "won" | "lost" | "failed". */
    std::string status;
    /** Estimated success probability (has_score only). */
    double score = 0.0;
    bool has_score = false;
    /** Wall-clock spent producing (or failing to produce) a candidate. */
    double wall_ms = 0.0;
    /** Failure description ("" unless status == "failed"). */
    std::string reason;
};

/**
 * One budget-attribution phase of a request's wall time. The phases in
 * a response partition run_ms exactly (a final "other" entry absorbs
 * the residual), so summing `ms` over the array reproduces the wall
 * time; `pct_of_deadline` is only present when the request carried a
 * deadline. Wall-clock data, so phases live inside the response's
 * `timing` object and are absent from the deterministic projection.
 */
struct ServicePhase {
    /** "admission", "parse", "characterize", "schedule", "simulate",
     *  "emit", or "other". */
    std::string phase;
    double ms = 0.0;
    /** ms / deadline_ms * 100; unset when the request had no deadline. */
    std::optional<double> pct_of_deadline;
};

/** Outcome of one ServiceRequest. */
struct ServiceResponse {
    /** Echo of ServiceRequest::id. */
    std::string id;
    /** Machine-readable outcome; `status()` is its wire spelling. */
    StatusCode code = StatusCode::kOk;
    /** Human-readable failure description ("" on success). */
    std::string error;

    /** Compiled circuit as OpenQASM ("" when no schedule pass ran). */
    std::string qasm;
    /** Timed schedule report (want_report only). */
    std::string report;
    /** Simulated measurement histogram (simulate_shots > 0 only). */
    std::string counts;

    /** Scheduler that actually produced the schedule. */
    std::string scheduler_name;
    /** Winner's member key when a better-ranked portfolio member
     *  failed; "none" when the race finished clean. */
    std::string degradation = "none";
    std::string degradation_reason;
    /** Per-member race outcomes, in tie-break rank order. */
    std::vector<ServicePortfolioOutcome> portfolio;
    /** Omega actually used, when an omega-using scheduler ran. */
    std::optional<double> omega;

    /** Schedule makespan, ns (0 when no schedule was produced). */
    double duration_ns = 0.0;
    /** Modeled success probability under the characterized error model. */
    double success_probability = 0.0;
    /** Gates whose modeled error is more than twice their independent
     *  rate because a gate overlapping them raises it
     *  (ScheduleErrorEstimate::crosstalk_overlaps): a count of gates,
     *  not of pairs, and not the scheduler's high-crosstalk test. */
    int crosstalk_overlaps = 0;
    /** True when the pipeline produced a schedule (the three metrics
     *  above are only meaningful when set). */
    bool has_estimate = false;

    /** initial_layout[logical] = physical. */
    std::vector<int> initial_layout;
    /** final_layout[logical] = physical after routing SWAPs. */
    std::vector<int> final_layout;
    /** One-line notes from each pipeline pass, in execution order. */
    std::vector<std::string> diagnostics;

    /** Snapshot id of the characterization used ("" when none). */
    std::string characterization_id;
    /** True when the characterization came from the service's snapshot
     *  cache instead of being measured by this request. */
    bool cache_hit = false;

    /**
     * Trace id of the request (32 hex chars). Always set by the
     * engine; the wire `trace` object carries it with an `origin` of
     * "client" (echoed from the request) or "service" (minted).
     */
    std::string trace_id;
    /** True when trace_id came from the request, not the service. */
    bool trace_client_supplied = false;

    /**
     * Structured ping/stats diagnostics (counters and gauges such as
     * inflight, queued, admitted). Serialized as the `diag` object when
     * non-empty; a ping no longer repeats them as `key=value` strings
     * in `diagnostics` (see docs/SERVICE.md).
     */
    std::map<std::string, double> diag;

    /**
     * Service introspection snapshot (kind "stats" only): one JSON
     * document, schema xtalk.svcstats.v1, carried as an escaped string
     * in the `stats` field so the response stays one flat object.
     */
    std::string stats_json;

    /** Milliseconds spent queued before a run slot freed. */
    double queue_ms = 0.0;
    /** Milliseconds the engine spent on the request, queue_ms included. */
    double run_ms = 0.0;
    /** Budget attribution: where run_ms actually went, starting with
     *  the admission wait. */
    std::vector<ServicePhase> phases;

    /** Wire status string ("ok", "error", "rejected", ...). */
    const char* status() const { return StatusName(code); }

    /**
     * One-line wire form (schema xtalk.response.v1, no newline). With
     * @p include_timing false the wall-clock `timing` object is
     * omitted — the deterministic projection two identical requests
     * must agree on byte-for-byte.
     */
    std::string ToJson(bool include_timing = true) const;

    /** Parse one wire line (see ServiceRequest::FromJson). */
    static bool FromJson(const std::string& text, ServiceResponse* out,
                         std::string* error = nullptr);
};

/** Convenience constructor for failure responses. */
ServiceResponse MakeErrorResponse(const ServiceRequest& request,
                                  StatusCode code, const std::string& error);

}  // namespace xtalk::service

#endif  // XTALK_SERVICE_API_H
