#include "service/engine.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <sstream>
#include <string_view>

#include "characterization/io.h"
#include "circuit/qasm.h"
#include "circuit/qasm_parser.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/retry.h"
#include "compiler/compiler.h"
#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "device/device_io.h"
#include "device/ibmq_devices.h"
#include "experiments/experiments.h"
#include "runtime/executor.h"
#include "service/stats.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"

namespace xtalk::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Seed of every on-the-fly characterization (part of its cache key). */
constexpr uint64_t kCharacterizationSeed = 1;

/** Content key for the snapshot cache: everything that shapes the
 *  measurement, hashed. Two requests share a key exactly when their
 *  on-the-fly characterizations would be bit-identical. The spec text
 *  does not carry the drift seed, which moves every drifted rate, so
 *  the key names it. */
std::string
CharacterizationKey(const Device& device)
{
    const RbConfig config = BenchRbConfig();
    std::ostringstream canon;
    canon << "policy=one-hop-bin-packed;seed=" << kCharacterizationSeed
          << ";shots=" << config.shots
          << ";seqs=" << config.sequences_per_length
          << ";rb_seed=" << config.seed << ";lengths=";
    for (int length : config.lengths) {
        canon << length << ",";
    }
    canon << ";drift_seed=" << device.drift_seed()
          << ";device=" << SerializeDeviceSpec(device);
    return telemetry::FnvHex(canon.str());
}

/**
 * A built-in device, built on its name's first request and kept for the
 * life of the process. Its snapshot key is derived on the first request
 * that characterizes it; the RB budget and seed in the key are
 * constants, so the key is the device's alone.
 */
class NamedDevice {
  public:
    NamedDevice(std::string_view name, Device (*make)())
        : name_(name), make_(make)
    {
    }

    std::string_view name() const { return name_; }

    const Device& device()
    {
        std::call_once(built_, [this] { device_.emplace(make_()); });
        return *device_;
    }

    const std::string& key()
    {
        std::call_once(keyed_,
                       [this] { key_ = CharacterizationKey(device()); });
        return key_;
    }

  private:
    std::string_view name_;
    Device (*make_)();
    std::once_flag built_;
    std::optional<Device> device_;
    std::once_flag keyed_;
    std::string key_;
};

/** The built-in device a request names; throws on an unknown name. */
NamedDevice&
FindNamedDevice(const std::string& name)
{
    // Leaked on purpose, like CliffordGroup::Shared: a daemon thread
    // may still be compiling against a device during static
    // destruction.
    static auto* const table = new std::array<NamedDevice, 3>{{
        {"poughkeepsie", [] { return MakePoughkeepsie(); }},
        {"johannesburg", [] { return MakeJohannesburg(); }},
        {"boeblingen", [] { return MakeBoeblingen(); }},
    }};
    for (NamedDevice& entry : *table) {
        if (entry.name() == name) {
            return entry;
        }
    }
    XTALK_REQUIRE(false, "unknown device '" << name << "'");
}

CompilerOptions
MakeCompilerOptions(const ServiceRequest& request)
{
    CompilerOptions options;
    XTALK_REQUIRE(ParseLayoutPolicy(request.layout, &options.layout),
                  "unknown layout '" << request.layout << "'");
    XTALK_REQUIRE(
        ParseSchedulerPolicy(request.scheduler, &options.scheduler),
        "unknown scheduler '" << request.scheduler << "'");
    options.xtalk.omega = request.omega;
    options.portfolio = request.schedulers;
    options.verify_passes = request.verify_passes;
    return options;
}

/** Milliseconds elapsed since @p start. */
double
MsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Milliseconds left before @p deadline (<= 0 means it passed). */
double
RemainingMs(Clock::time_point deadline)
{
    return std::chrono::duration<double, std::milli>(deadline -
                                                     Clock::now())
        .count();
}

/**
 * Split the request's remaining wall-clock time across the scheduling
 * portfolio. Only called when a deadline exists: deadline-free requests
 * keep the default budgets, so their schedules are bit-identical to the
 * CLI's regardless of service load.
 *
 * The portfolio as a whole gets the full remaining time (every member
 * sees it as an advisory budget); the SMT member's solver budgets are
 * clamped to ~85% of it so that when the solver consumes its entire
 * slice, the race still has headroom to answer with a polynomial
 * member's candidate before the deadline.
 */
void
ApplyDeadlineBudget(Clock::time_point deadline, CompilerOptions* options)
{
    const double remaining = std::max(1.0, RemainingMs(deadline));
    const auto remaining_ms = static_cast<unsigned>(remaining);
    const auto solver_ms = std::max(
        1u, static_cast<unsigned>(remaining * 0.85));
    options->portfolio_budget_ms =
        options->portfolio_budget_ms == 0
            ? remaining_ms
            : std::min(options->portfolio_budget_ms, remaining_ms);
    options->xtalk.timeout_ms =
        std::min(options->xtalk.timeout_ms, solver_ms);
    options->xtalk.total_budget_ms =
        options->xtalk.total_budget_ms == 0
            ? solver_ms
            : std::min(options->xtalk.total_budget_ms, solver_ms);
}

/**
 * Call @p use with the metric name "<prefix><name><suffix>", built in a
 * stack buffer: metric lookups take a std::string_view, so a request
 * names its metrics without a heap string (a name past 64 bytes gets
 * one).
 */
template <typename F>
void
WithMetricName(std::string_view prefix, std::string_view name,
               std::string_view suffix, F&& use)
{
    std::array<char, 64> buffer;
    if (prefix.size() + name.size() + suffix.size() > buffer.size()) {
        use(std::string(prefix).append(name).append(suffix));
        return;
    }
    char* end = std::copy(prefix.begin(), prefix.end(), buffer.data());
    end = std::copy(name.begin(), name.end(), end);
    end = std::copy(suffix.begin(), suffix.end(), end);
    use(std::string_view(buffer.data(),
                         static_cast<size_t>(end - buffer.data())));
}

/**
 * RAII budget-attribution timer: on destruction, appends one
 * {phase, ms} entry to the list Handle owns, so a phase still open when
 * RunCompile returns early or throws is recorded too. Handle later adds
 * the "other" residual so the entries partition run_ms exactly, then
 * stamps pct_of_deadline and records the `svc.phase.<name>.ms`
 * histograms.
 */
class PhaseTimer {
  public:
    PhaseTimer(std::vector<ServicePhase>* phases, const char* phase)
        : phases_(phases), phase_(phase), start_(Clock::now())
    {
    }

    ~PhaseTimer()
    {
        phases_->push_back({phase_, MsSince(start_), std::nullopt});
    }

    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;

  private:
    std::vector<ServicePhase>* phases_;
    const char* phase_;
    Clock::time_point start_;
};

/** Holds an admitted request's run slot; released on every exit. */
class HeldSlot {
  public:
    explicit HeldSlot(AdmissionGate* gate) : gate_(gate) {}
    ~HeldSlot() { gate_->Leave(); }

    HeldSlot(const HeldSlot&) = delete;
    HeldSlot& operator=(const HeldSlot&) = delete;

  private:
    AdmissionGate* gate_;
};

/**
 * Adopt the request's trace context: the client's id when it supplied
 * one, else whatever context the caller (the daemon's connection
 * handler) already established on this thread, else a fresh mint. The
 * one place every request passes through, so a request has exactly one
 * trace id however it arrived.
 */
telemetry::TraceContext
AdoptTraceContext(const ServiceRequest& request, bool* client_supplied)
{
    telemetry::TraceContext context;
    if (!request.trace_id.empty() &&
        telemetry::ParseTraceId(request.trace_id, &context)) {
        context.span = request.span_id != 0 ? request.span_id
                                            : telemetry::MintSpanId();
        *client_supplied = true;
        return context;
    }
    *client_supplied = false;
    if (telemetry::CurrentTraceContext().valid()) {
        return telemetry::CurrentTraceContext();
    }
    return telemetry::MintTraceContext();
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      cache_(options.cache_entries),
      gate_(options.admission)
{
}

ServiceResponse
Engine::Handle(const ServiceRequest& request,
               std::optional<Clock::time_point> deadline)
{
    const Clock::time_point started = Clock::now();
    if (!deadline.has_value() && request.deadline_ms > 0) {
        deadline = started + std::chrono::milliseconds(request.deadline_ms);
    }
    // Scope the request's trace context over everything Handle does:
    // every journal event, span, and pool job below carries this id.
    bool client_trace = false;
    const telemetry::TraceContext context =
        AdoptTraceContext(request, &client_trace);
    telemetry::ScopedTraceContext trace_scope(context);
    const bool compile = request.kind == "compile";
    const auto refuse = [&](StatusCode code, const std::string& error) {
        ServiceResponse refused = MakeErrorResponse(request, code, error);
        refused.trace_id = context.trace_id();
        refused.trace_client_supplied = client_trace;
        return refused;
    };
    // Compiles wait for a run slot; ping/stats/shutdown are protocol
    // chatter and skip the gate, so they answer while it is saturated.
    std::optional<HeldSlot> slot;
    std::vector<ServicePhase> phases;
    if (compile) {
        switch (gate_.Enter(deadline)) {
            case Admission::kRejected:
                telemetry::JournalEmit("svc.reject",
                                       {{"id", request.id},
                                        {"running", gate_.running()},
                                        {"waiting", gate_.waiting()}});
                return refuse(
                    StatusCode::kRejected,
                    "server at capacity (" +
                        std::to_string(options_.admission.max_concurrent) +
                        " running, " +
                        std::to_string(options_.admission.max_queue) +
                        " queued); retry later");
            case Admission::kTimedOut:
                telemetry::JournalEmit("svc.timeout", {{"id", request.id}});
                return refuse(StatusCode::kTimeout,
                              "deadline expired while waiting for a run "
                              "slot");
            case Admission::kAdmitted:
                break;
        }
        slot.emplace(&gate_);
        phases.push_back({"admission", MsSince(started), std::nullopt});
    }
    telemetry::JournalEmit("svc.start", {{"id", request.id},
                                         {"kind", request.kind}});
    ServiceResponse response;
    std::string validation_error;
    if (!request.Validate(&validation_error)) {
        response = MakeErrorResponse(request, StatusCode::kError,
                                     validation_error);
    } else if (!compile) {
        response.id = request.id;
        if (request.kind == "ping") {
            // Liveness probes double as a health readout: chaos
            // campaigns assert inflight drains to zero through here.
            response.diag = {
                {"inflight", static_cast<double>(gate_.running())},
                {"queued", static_cast<double>(gate_.waiting())},
                {"admitted", static_cast<double>(gate_.admitted())},
                {"rejected", static_cast<double>(gate_.rejected())},
                {"timed_out", static_cast<double>(gate_.timed_out())},
                {"cache_size", static_cast<double>(cache_.size())},
                {"cache_evictions",
                 static_cast<double>(cache_.evictions())}};
        } else if (request.kind == "stats") {
            response.stats_json = BuildServiceStatsJson(cache_, gate_);
        }
    } else {
        try {
            response = RunCompile(request, deadline, &phases);
        } catch (const std::exception& e) {
            response = MakeErrorResponse(request, ClassifyException(e),
                                         e.what());
        }
    }
    response.trace_id = context.trace_id();
    response.trace_client_supplied = client_trace;
    response.run_ms = MsSince(started);
    if (compile) {
        // Budget attribution: close the books so the phases partition
        // run_ms exactly — "other" absorbs whatever the timed stages
        // did not cover (device resolution: a table lookup for a named
        // device after its first request, a file load otherwise; the
        // pipeline and state setup; the response copy-out; the error
        // path). Then price each phase against the deadline.
        response.queue_ms = phases.front().ms;
        double accounted = 0.0;
        for (const ServicePhase& phase : phases) {
            accounted += phase.ms;
        }
        ServicePhase other;
        other.phase = "other";
        other.ms = std::max(0.0, response.run_ms - accounted);
        phases.push_back(std::move(other));
        for (ServicePhase& phase : phases) {
            if (request.deadline_ms > 0) {
                phase.pct_of_deadline =
                    phase.ms /
                    static_cast<double>(request.deadline_ms) * 100.0;
            }
            if (telemetry::Enabled()) {
                WithMetricName("svc.phase.", phase.phase, ".ms",
                               [&](std::string_view name) {
                                   telemetry::GetHistogram(name).Record(
                                       phase.ms);
                               });
            }
        }
        response.phases = std::move(phases);
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter("svc.requests").Add(1);
        WithMetricName("svc.status.", response.status(), "",
                       [](std::string_view name) {
                           telemetry::GetCounter(name).Add(1);
                       });
        telemetry::GetHistogram("svc.request_ms").Record(response.run_ms);
    }
    telemetry::JournalEmit("svc.done",
                           {{"id", request.id},
                            {"status", response.status()},
                            {"run_ms", response.run_ms},
                            {"cache_hit", response.cache_hit}});
    return response;
}

ServiceResponse
Engine::RunCompile(const ServiceRequest& request,
                   std::optional<Clock::time_point> deadline,
                   std::vector<ServicePhase>* phases)
{
    ServiceResponse response;
    response.id = request.id;

    std::optional<Circuit> parsed;
    {
        PhaseTimer phase_timer(phases, "parse");
        telemetry::ScopedSpan span("tool.parse_qasm");
        parsed = ParseQasm(request.qasm);
    }
    const Circuit& circuit = *parsed;

    // A named device is the process's one copy; a device file is
    // loaded, and later keyed by its content, on every request, so a
    // file rewritten between requests is seen.
    std::optional<Device> loaded;
    NamedDevice* named = nullptr;
    if (!request.device_file.empty()) {
        loaded.emplace(LoadDeviceSpec(request.device_file));
    } else {
        named = &FindNamedDevice(request.device);
    }
    const Device& device = loaded ? *loaded : named->device();
    if (GetLogLevel() >= LogLevel::kInform) {
        Inform("device: " + device.name() + " (" +
               std::to_string(device.num_qubits()) + " qubits)");
    }
    telemetry::SetLabel("tool.device", device.name());

    // Build the pipeline before characterizing so a typo in `passes`
    // fails fast: the default Figure 2 toolflow, or the named passes.
    PassManagerOptions manager_options;
    manager_options.verify =
        request.verify_passes || VerifyPassesRequestedByEnv();
    PassManager pipeline(manager_options);
    if (request.passes.empty()) {
        pipeline = MakeDefaultPipeline(manager_options);
    } else {
        for (const std::string& name : request.passes) {
            pipeline.AddPass(name);
        }
        XTALK_REQUIRE(pipeline.size() > 0, "'passes' names no passes");
    }
    // Likewise reject a circuit wider than the device before
    // characterizing: layout would reject it anyway, after seconds of SRB.
    XTALK_REQUIRE(circuit.num_qubits() <= device.num_qubits(),
                  "circuit needs " << circuit.num_qubits()
                                   << " qubits, device has "
                                   << device.num_qubits());

    // The pipeline reads either the snapshot the request supplies or
    // the cached one, held rather than copied.
    CrosstalkCharacterization supplied;
    SnapshotCache::Entry cached;
    if (!request.characterization_text.empty() ||
        !request.characterization_path.empty()) {
        PhaseTimer phase_timer(phases, "characterize");
        std::string measured_on;
        if (!request.characterization_text.empty()) {
            supplied = ParseCharacterization(request.characterization_text,
                                             &measured_on);
        } else {
            // Bounded retry: characterization files typically live on
            // network filesystems in real deployments, and transient
            // read failures should not kill a compile.
            RetryCall([&] {
                supplied = LoadCharacterization(
                    request.characterization_path, &measured_on);
            });
        }
        XTALK_REQUIRE(
            measured_on.empty() || measured_on == device.name(),
            "characterization was measured on '"
                << measured_on << "', not '" << device.name()
                << "' (edge ids are device-specific)");
    } else if (request.NeedsCharacterization()) {
        PhaseTimer phase_timer(phases, "characterize");
        if (deadline.has_value() && RemainingMs(*deadline) <= 0.0) {
            return MakeErrorResponse(
                request, StatusCode::kTimeout,
                "deadline expired before characterization");
        }
        const std::string key =
            named != nullptr ? named->key() : CharacterizationKey(device);
        cached = cache_.GetOrCompute(key, [&] {
            Inform("characterizing device (bin-packed SRB)...");
            telemetry::ScopedSpan span("tool.characterize");
            return CharacterizeDevice(
                device, BenchRbConfig(),
                CharacterizationPolicy::kOneHopBinPacked,
                kCharacterizationSeed);
        });
        response.cache_hit = cached.hit;
    }
    const CrosstalkCharacterization& characterization =
        cached.data ? *cached.data : supplied;
    if (!characterization.independent_entries().empty() ||
        !characterization.conditional_entries().empty()) {
        response.characterization_id =
            cached.data ? cached.id : characterization.SnapshotId();
    }
    if (!request.save_characterization_path.empty()) {
        SaveCharacterization(request.save_characterization_path,
                             characterization, device.name());
        Inform("saved characterization to " +
               request.save_characterization_path);
    }

    CompilerOptions compile_options = MakeCompilerOptions(request);
    if (deadline.has_value()) {
        if (RemainingMs(*deadline) <= 0.0) {
            ServiceResponse timeout = MakeErrorResponse(
                request, StatusCode::kTimeout,
                "deadline expired before compilation");
            timeout.characterization_id = response.characterization_id;
            timeout.cache_hit = response.cache_hit;
            return timeout;
        }
        ApplyDeadlineBudget(*deadline, &compile_options);
    }

    CompilationState state(device, characterization, circuit,
                           compile_options);
    {
        PhaseTimer phase_timer(phases, "schedule");
        telemetry::ScopedSpan span("compile.total");
        if (telemetry::Enabled()) {
            telemetry::GetCounter("compile.invocations").Add(1);
            telemetry::GetCounter("compile.input_gates")
                .Add(static_cast<uint64_t>(circuit.size()));
        }
        pipeline.Run(state);
    }
    for (const std::string& note : state.diagnostics) {
        Inform(note);
    }

    response.scheduler_name = state.scheduler_name;
    response.degradation = state.degradation;
    response.degradation_reason = state.degradation_reason;
    response.portfolio.reserve(state.portfolio.size());
    for (const PortfolioMemberOutcome& outcome : state.portfolio) {
        ServicePortfolioOutcome wire;
        wire.member = outcome.member;
        wire.scheduler = outcome.scheduler_name;
        wire.status = PortfolioOutcomeStatusName(outcome.status);
        wire.score = outcome.score;
        wire.has_score = outcome.has_score;
        wire.wall_ms = outcome.wall_ms;
        wire.reason = outcome.reason;
        response.portfolio.push_back(std::move(wire));
    }
    response.omega = state.omega;
    response.diagnostics = state.diagnostics;
    response.initial_layout.assign(state.initial_layout.begin(),
                                   state.initial_layout.end());
    response.final_layout.assign(state.final_layout.begin(),
                                 state.final_layout.end());
    if (state.schedule) {
        response.duration_ns = state.schedule->TotalDuration();
        telemetry::SetLabel("tool.scheduler", state.scheduler_name);
    }
    if (state.estimate) {
        response.has_estimate = true;
        response.success_probability = state.estimate->success_probability;
        response.crosstalk_overlaps = state.estimate->crosstalk_overlaps;
    }

    if (request.want_report) {
        XTALK_REQUIRE(state.schedule.has_value(),
                      "a report needs a schedule; the pipeline ran no "
                      "schedule pass");
        response.report = state.schedule->ToString();
    }
    if (request.simulate_shots > 0) {
        XTALK_REQUIRE(state.schedule.has_value(),
                      "simulation needs a schedule; the pipeline ran no "
                      "schedule pass");
        if (deadline.has_value() && RemainingMs(*deadline) <= 0.0) {
            ServiceResponse timeout = MakeErrorResponse(
                request, StatusCode::kTimeout,
                "deadline expired before simulation");
            timeout.characterization_id = response.characterization_id;
            timeout.cache_hit = response.cache_hit;
            return timeout;
        }
        PhaseTimer phase_timer(phases, "simulate");
        telemetry::ScopedSpan span("tool.simulate");
        runtime::Executor executor(device);
        runtime::ExecutionJob job;
        job.schedule = *state.schedule;
        // Fixed chunk bound, NOT the thread count: the chunk plan
        // picks the random streams, so tying it to the worker count
        // would make the histogram depend on pool sizing.
        job.spec = RunSpec{request.simulate_shots, std::nullopt, 16};
        const runtime::ExecutionResult result =
            executor.Run(std::move(job));
        response.counts = result.counts.ToString();
    }

    // The emitted circuit: the barriered executable, or the schedule's
    // gate order when the pipeline stopped before barrier lowering.
    {
        PhaseTimer phase_timer(phases, "emit");
        if (state.executable) {
            response.qasm = ToQasm(*state.executable);
        } else if (state.schedule) {
            response.qasm = ToQasm(state.schedule->ToCircuit());
        }
    }
    return response;
}

void
FillRunRecord(const ServiceRequest& request,
              const ServiceResponse& response,
              telemetry::RunRecord* record)
{
    record->config_hash = request.ConfigHash();
    record->device = request.device_file.empty() ? request.device
                                                 : request.device_file;
    record->characterization_id = response.characterization_id;
    record->scheduler = response.scheduler_name;
    record->degradation = response.degradation;
    record->degradation_reason = response.degradation_reason.empty()
                                     ? response.error
                                     : response.degradation_reason;
    record->trace_id = response.trace_id;
    record->exit_code = ExitCodeFor(response.code);
}

}  // namespace xtalk::service
