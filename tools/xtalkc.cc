/**
 * @file
 * xtalkc — command-line crosstalk-adaptive compiler.
 *
 * A thin shell over service::Engine: the flags below are parsed into
 * one ServiceRequest (service/api.h), handed to Engine::Handle — the
 * same entry point the `xtalkd` daemon serves over its socket — and
 * the response is rendered to files/stdout. A compile through this
 * CLI and the same request through the daemon are bit-identical by
 * construction.
 *
 *   xtalkc --device poughkeepsie --scheduler xtalk --omega 0.5 \
 *          --characterization xtalk.txt --report --simulate 1024 \
 *          --output out.qasm in.qasm
 *
 * Pass-level control (see docs/ARCHITECTURE.md): --list-passes prints
 * the registry, --passes a,b,c runs a custom pipeline, and
 * --verify-passes (or XTALK_VERIFY_PASSES=1) runs the inter-pass
 * invariant checks after every transform.
 *
 * With no --characterization file the device is characterized on the
 * fly (bin-packed SRB at the fast budget); --save-characterization
 * persists the result for reuse.
 *
 * Observability (see docs/OBSERVABILITY.md): --stats-json dumps the
 * telemetry metric registry, --trace-json dumps a Chrome trace_event
 * file viewable in chrome://tracing or Perfetto, --profile /
 * --profile-collapsed dump the hierarchical profiler's merged cost
 * tree (JSON / flamegraph collapsed stacks), --journal dumps the
 * flight-recorder event journal as JSONL (and arms a crash dump so
 * exit-code-3 runs leave evidence), --metrics-prom dumps the registry
 * in OpenMetrics/Prometheus text format, --ledger appends a one-line
 * per-run summary record, --response-json dumps the full
 * xtalk.response.v1 message, --trace-seed mints a deterministic
 * request trace id at the edge (end-to-end request tracing),
 * --log-level controls stderr verbosity.
 *
 * Exit codes (common/status.h, pinned by common_test): 0 success,
 * 1 I/O or telemetry-write failure, 2 invalid usage or input
 * (xtalk::Error), 3 internal invariant violation (xtalk::InternalError
 * — a bug; please report it).
 */
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_support.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/status.h"
#include "compiler/pass_manager.h"
#include "faults/faults.h"
#include "runtime/thread_pool.h"
#include "scheduler/portfolio.h"
#include "service/api.h"
#include "service/engine.h"
#include "telemetry/journal.h"
#include "telemetry/ledger.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"

using namespace xtalk;

namespace {

struct Options {
    std::string device = "poughkeepsie";
    std::string device_file;
    std::string scheduler = "xtalk";
    std::string layout = "noise-aware";
    std::string characterization_path;
    std::string save_characterization_path;
    std::string output_path;
    std::string input_path;
    cli::TelemetryPaths telemetry;
    std::string ledger_path;
    std::string response_json_path;
    std::string log_level;
    std::string passes;
    std::string schedulers;
    std::string faults;
    double omega = 0.5;
    int simulate_shots = 0;
    int threads = 0;
    uint64_t trace_seed = 0;
    bool has_trace_seed = false;
    bool report = false;
    bool list_passes = false;
    bool list_schedulers = false;
    bool verify_passes = false;
    bool help = false;
};

void
PrintUsage()
{
    std::cout <<
        "usage: xtalkc [options] <input.qasm>\n"
        "  --device <name>            poughkeepsie | johannesburg |\n"
        "                             boeblingen (default poughkeepsie)\n"
        "  --device-file <file>       load a custom device spec instead\n"
        "  --scheduler <name>         scheduler policy: a member key from\n"
        "                             --list-schedulers, or portfolio\n"
        "                             (default xtalk)\n"
        "  --schedulers <a,b,c>       portfolio member keys to race, in\n"
        "                             tie-break rank order (implies\n"
        "                             --scheduler portfolio; see\n"
        "                             --list-schedulers)\n"
        "  --list-schedulers          print the portfolio member registry\n"
        "                             and exit\n"
        "  --omega <w>                crosstalk weight factor (default 0.5)\n"
        "  --passes <a,b,c>           run a custom pass pipeline instead\n"
        "                             of the default (see --list-passes)\n"
        "  --list-passes              print the pass registry and exit\n"
        "  --verify-passes            run inter-pass verification after\n"
        "                             every transform pass\n"
        "  --characterization <file>  load measured crosstalk data\n"
        "  --save-characterization <file>  persist (possibly fresh) data\n"
        "  --output <file>            write the scheduled circuit as QASM\n"
        "  --report                   print the timed schedule + analysis\n"
        "  --simulate <shots>         execute on the noisy simulator\n"
        "  --threads <n>              worker threads for simulation.\n"
        "                             Precedence: --threads beats the\n"
        "                             XTALK_THREADS environment variable,\n"
        "                             which beats the hardware thread\n"
        "                             count; an Executor built with an\n"
        "                             explicit pool size ignores all\n"
        "                             three. The resolved size is\n"
        "                             published as the\n"
        "                             runtime.pool.threads gauge.\n"
        "  --faults <plan>            inject deterministic faults, e.g.\n"
        "                             'smt.solve:n=1;io.load:p=0.5;seed=7'\n"
        "                             (overrides XTALK_FAULTS; see\n"
        "                             docs/RESILIENCE.md)\n"
        "  --stats-json <file>        dump telemetry metrics as JSON\n"
        "  --trace-json <file>        dump a Chrome trace_event JSON file\n"
        "                             (chrome://tracing / Perfetto)\n"
        "  --profile <file>           dump the hierarchical profiler cost\n"
        "                             tree as JSON (xtalk.profile.v1)\n"
        "  --profile-collapsed <file> dump collapsed stacks for flamegraph\n"
        "                             tooling (path;to;node <us> lines)\n"
        "  --journal <file>           dump the flight-recorder event\n"
        "                             journal as JSONL; also dumped on\n"
        "                             crash (exit 3)\n"
        "  --metrics-prom <file>      dump metrics in OpenMetrics /\n"
        "                             Prometheus text format\n"
        "  --ledger <file>            append a one-line run summary\n"
        "                             record (JSONL, append-only)\n"
        "  --response-json <file>     dump the xtalk.response.v1 message\n"
        "                             for this run (the daemon's wire\n"
        "                             format; see docs/SERVICE.md)\n"
        "  --trace-seed <n>           mint the request's trace id from a\n"
        "                             deterministic stream seeded with n\n"
        "                             (same as XTALK_TRACE_SEED); without\n"
        "                             either, the service mints a random\n"
        "                             id (see docs/OBSERVABILITY.md)\n"
        "  --log-level <level>        quiet | warn | info | debug\n"
        "  --help\n";
}

bool
ParseArgs(int argc, char** argv, Options* options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char* what) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << what << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--device") {
            options->device = next("--device");
        } else if (arg == "--device-file") {
            options->device_file = next("--device-file");
        } else if (arg == "--scheduler") {
            options->scheduler = next("--scheduler");
        } else if (arg == "--layout") {
            options->layout = next("--layout");
        } else if (arg == "--omega") {
            options->omega =
                cli::ParseNumericFlag(arg, next("--omega"), 0.0, 1.0);
        } else if (arg == "--passes") {
            options->passes = next("--passes");
        } else if (arg == "--schedulers") {
            options->schedulers = next("--schedulers");
        } else if (arg == "--list-schedulers") {
            options->list_schedulers = true;
        } else if (arg == "--faults") {
            options->faults = next("--faults");
        } else if (arg == "--list-passes") {
            options->list_passes = true;
        } else if (arg == "--verify-passes") {
            options->verify_passes = true;
        } else if (arg == "--characterization") {
            options->characterization_path = next("--characterization");
        } else if (arg == "--save-characterization") {
            options->save_characterization_path =
                next("--save-characterization");
        } else if (arg == "--output") {
            options->output_path = next("--output");
        } else if (arg == "--simulate") {
            options->simulate_shots =
                cli::ParseNumericFlag(arg, next("--simulate"), 0);
        } else if (arg == "--threads") {
            options->threads =
                cli::ParseNumericFlag(arg, next("--threads"), 1);
        } else if (arg == "--stats-json") {
            options->telemetry.stats_json = next("--stats-json");
        } else if (arg == "--trace-json") {
            options->telemetry.trace_json = next("--trace-json");
        } else if (arg == "--profile") {
            options->telemetry.profile = next("--profile");
        } else if (arg == "--profile-collapsed") {
            options->telemetry.profile_collapsed =
                next("--profile-collapsed");
        } else if (arg == "--journal") {
            options->telemetry.journal = next("--journal");
        } else if (arg == "--metrics-prom") {
            options->telemetry.metrics_prom = next("--metrics-prom");
        } else if (arg == "--ledger") {
            options->ledger_path = next("--ledger");
        } else if (arg == "--response-json") {
            options->response_json_path = next("--response-json");
        } else if (arg == "--trace-seed") {
            options->trace_seed =
                cli::ParseNumericFlag<uint64_t>(arg, next("--trace-seed"));
            options->has_trace_seed = true;
        } else if (arg == "--log-level") {
            options->log_level = next("--log-level");
        } else if (arg == "--report") {
            options->report = true;
        } else if (arg == "--help" || arg == "-h") {
            options->help = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "error: unknown option " << arg << "\n";
            return false;
        } else {
            options->input_path = arg;
        }
    }
    return true;
}

/** Pull the ledger's key metrics out of the registry. */
void
CollectLedgerMetrics(telemetry::RunRecord* record)
{
    record->metrics["compile_invocations"] = static_cast<double>(
        telemetry::GetCounter("compile.invocations").value());
    record->metrics["executor_chunks"] = static_cast<double>(
        telemetry::GetCounter("runtime.executor.chunks").value());
    record->metrics["executor_job_failures"] = static_cast<double>(
        telemetry::GetCounter("runtime.executor.job_failures").value());
    record->metrics["retry_attempts"] = static_cast<double>(
        telemetry::GetCounter("retry.attempts").value());
    record->metrics["solver_fallbacks"] = static_cast<double>(
        telemetry::GetCounter("sched.xtalk.fallbacks").value());
    record->metrics["compile_ms"] =
        telemetry::GetHistogram("span.compile.total.ms").sum();
    // p50/p95/p99 together: a p95 alone cannot distinguish "the median
    // moved" from "the tail moved", and bench_diff gates on both.
    const telemetry::Histogram& solve =
        telemetry::GetHistogram("sched.xtalk.solve_ms");
    record->metrics["solve_ms_p50"] = solve.Percentile(50);
    record->metrics["solve_ms_p95"] = solve.Percentile(95);
    record->metrics["solve_ms_p99"] = solve.Percentile(99);
    record->metrics["pool_utilization"] =
        telemetry::GetGauge("runtime.pool.utilization").value();
}

std::vector<std::string>
SplitCommaList(const std::string& list)
{
    std::vector<std::string> parts;
    std::stringstream stream(list);
    std::string part;
    while (std::getline(stream, part, ',')) {
        if (!part.empty()) {
            parts.push_back(part);
        }
    }
    return parts;
}

/** The CLI flags as one service request (the daemon's unit of work). */
service::ServiceRequest
MakeRequest(const Options& options)
{
    service::ServiceRequest request;
    request.kind = "compile";
    request.device = options.device;
    request.device_file = options.device_file;
    request.layout = options.layout;
    request.scheduler = options.scheduler;
    request.schedulers = SplitCommaList(options.schedulers);
    if (!request.schedulers.empty()) {
        request.scheduler = kPortfolioPolicy;
    }
    request.omega = options.omega;
    request.passes = SplitCommaList(options.passes);
    request.verify_passes = options.verify_passes;
    request.characterization_path = options.characterization_path;
    request.save_characterization_path =
        options.save_characterization_path;
    request.simulate_shots = options.simulate_shots;
    request.want_report = options.report;
    return request;
}

/** Render a successful (or partially successful) response the way the
 *  classic CLI always did: report + counts + layout to stdout, QASM to
 *  --output or stdout. */
int
RenderResponse(const Options& options,
               const service::ServiceResponse& response)
{
    if (response.has_estimate || !response.scheduler_name.empty()) {
        std::ostringstream oss;
        oss << response.scheduler_name;
        if (response.omega.has_value()) {
            oss << " (omega " << *response.omega << ")";
        }
        oss << ": duration " << response.duration_ns << " ns";
        if (response.has_estimate) {
            oss << ", modeled success " << response.success_probability
                << ", high-crosstalk overlaps "
                << response.crosstalk_overlaps;
        }
        Inform(oss.str());
    }
    if (!response.initial_layout.empty()) {
        std::ostringstream layout;
        layout << "layout:";
        for (size_t l = 0; l < response.initial_layout.size(); ++l) {
            layout << " " << l << "->" << response.initial_layout[l];
        }
        Inform(layout.str());
    }
    if (options.report) {
        std::cout << response.report;
    }
    if (options.simulate_shots > 0) {
        std::cout << response.counts;
    }
    if (!options.output_path.empty()) {
        XTALK_REQUIRE(!response.qasm.empty(),
                      "--output needs a compiled circuit; the pipeline "
                      "ran no schedule pass");
        std::ofstream out(options.output_path);
        XTALK_REQUIRE(out.good(), "cannot write " << options.output_path);
        out << response.qasm;
        Inform("wrote " + options.output_path);
    } else if (!options.report && options.simulate_shots == 0 &&
               !response.qasm.empty()) {
        std::cout << response.qasm;
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!ParseArgs(argc, argv, &options)) {
        PrintUsage();
        return 2;
    }
    if (options.list_passes) {
        for (const PassInfo& info : RegisteredPasses()) {
            std::ostringstream line;
            line << info.name;
            for (size_t pad = info.name.size(); pad < 22; ++pad) {
                line << ' ';
            }
            line << (info.verification ? " [verify] " : "           ")
                 << info.description;
            std::cout << line.str() << "\n";
        }
        return 0;
    }
    if (options.list_schedulers) {
        for (const PortfolioMemberInfo& row : PortfolioRegistry()) {
            std::ostringstream line;
            line << std::left << std::setw(10) << row.key << std::setw(18)
                 << row.display_name << row.description;
            std::cout << line.str() << "\n";
        }
        return 0;
    }
    if (options.help || options.input_path.empty()) {
        PrintUsage();
        return options.help ? 0 : 2;
    }

    if (!cli::ApplyLogLevel(options.log_level)) {
        return 2;
    }
    if (!options.telemetry.stats_json.empty() ||
        !options.telemetry.trace_json.empty() ||
        !options.telemetry.metrics_prom.empty() ||
        !options.ledger_path.empty()) {
        telemetry::SetEnabled(true);
    }
    if (!options.telemetry.trace_json.empty()) {
        telemetry::SetTracingEnabled(true);
    }
    if (!options.telemetry.profile.empty() ||
        !options.telemetry.profile_collapsed.empty()) {
        // Implies SetEnabled: profiler frames are fed by ScopedSpan.
        telemetry::SetProfilingEnabled(true);
    }
    // Label this thread's lane in the trace export and the worker
    // lanes registered by the thread pool.
    telemetry::SetCurrentThreadName("main");
    if (!options.telemetry.journal.empty()) {
        telemetry::SetJournalEnabled(true);
        // Crashes (uncaught exceptions reaching std::terminate) still
        // dump the journal, so exit-code-3 runs leave evidence.
        telemetry::ArmCrashDump(options.telemetry.journal);
    }
    if (options.threads > 0) {
        // Must happen before the first pool use anywhere in the pipeline
        // (characterization, simulation) — the shared pool is sized once.
        runtime::ThreadPool::SetDefaultThreadCount(options.threads);
    }

    service::ServiceRequest request = MakeRequest(options);
    if (options.has_trace_seed) {
        telemetry::SeedTraceIds(options.trace_seed);
    }
    // Mint the trace id at the edge only when a deterministic stream
    // was requested (--trace-seed or XTALK_TRACE_SEED): a client-
    // supplied id appears in the deterministic response projection, so
    // it must itself be reproducible. Otherwise the engine mints a
    // random id that lives only in the timed projection.
    if (options.has_trace_seed || telemetry::TraceIdsSeeded()) {
        const telemetry::TraceContext minted =
            telemetry::MintTraceContext();
        request.trace_id = minted.trace_id();
        request.span_id = minted.span;
    }

    telemetry::RunRecord ledger;
    ledger.run_id = telemetry::RunId();
    ledger.when = telemetry::Iso8601UtcNow();
    ledger.config_hash = request.ConfigHash();
    ledger.device = options.device;
    // Stamp the run id into the registry so --stats-json and
    // --metrics-prom outputs cross-reference the journal and ledger.
    telemetry::SetLabel("tool.run", ledger.run_id);

    // One record per run, whatever the outcome: append after the run
    // resolved to an exit code, so a faulted compile is as visible in
    // the longitudinal history as a clean one.
    auto finish = [&](int exit_code) {
        if (!options.ledger_path.empty()) {
            ledger.exit_code = exit_code;
            CollectLedgerMetrics(&ledger);
            std::string error;
            if (telemetry::AppendRunRecord(options.ledger_path, ledger,
                                           &error)) {
                Inform("appended run record to " + options.ledger_path);
            } else {
                std::cerr << "error: " << error << "\n";
                if (exit_code == 0) {
                    return 1;
                }
            }
        }
        return exit_code;
    };

    try {
        if (!options.faults.empty()) {
            // CLI plan wins over XTALK_FAULTS; a grammar error is a
            // usage error (exit 2) like any other bad flag value.
            faults::InstallPlan(faults::FaultPlan::Parse(options.faults));
            Inform("fault plan: " + faults::ActivePlanString());
        }

        {
            std::ifstream input(options.input_path);
            XTALK_REQUIRE(input.good(),
                          "cannot read " << options.input_path);
            std::ostringstream buffer;
            buffer << input.rdbuf();
            request.qasm = buffer.str();
        }

        service::Engine engine;
        const service::ServiceResponse response = engine.Handle(request);

        service::FillRunRecord(request, response, &ledger);
        if (!options.response_json_path.empty()) {
            std::ofstream out(options.response_json_path);
            XTALK_REQUIRE(out.good(), "cannot write "
                                          << options.response_json_path);
            out << response.ToJson() << "\n";
            Inform("wrote response to " + options.response_json_path);
        }
        if (response.code != StatusCode::kOk) {
            if (response.code == StatusCode::kInternal) {
                std::cerr << "internal error: " << response.error << "\n"
                          << "this is a bug in xtalk; please report it\n";
            } else {
                std::cerr << "error: " << response.error << "\n";
            }
            cli::WriteTelemetryFiles(options.telemetry);
            return finish(ExitCodeFor(response.code));
        }
        const int render_code = RenderResponse(options, response);
        const bool telemetry_ok = cli::WriteTelemetryFiles(options.telemetry);
        return finish(render_code == 0 && telemetry_ok ? 0 : 1);
    } catch (const InternalError& e) {
        std::cerr << "internal error: " << e.what() << "\n"
                  << "this is a bug in xtalk; please report it\n";
        ledger.degradation_reason = e.what();
        cli::WriteTelemetryFiles(options.telemetry);
        return finish(ExitCodeFor(StatusCode::kInternal));
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        // Best-effort dump: partial metrics still help debug the failure.
        ledger.degradation_reason = e.what();
        cli::WriteTelemetryFiles(options.telemetry);
        return finish(ExitCodeFor(StatusCode::kError));
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        ledger.degradation_reason = e.what();
        cli::WriteTelemetryFiles(options.telemetry);
        return finish(ExitCodeFor(StatusCode::kIoError));
    }
}
