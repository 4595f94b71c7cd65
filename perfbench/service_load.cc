/**
 * @file
 * service_load: a closed-loop benchmark of the xtalk service, driven
 * from outside the program.
 *
 *   service_load --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                --xtalkd <path to xtalkd> [--out <dir for span files>]
 *
 * It generates a seeded pool of distinct circuits, sends them round-robin
 * from closed-loop clients through service::Engine::Handle or through a
 * spawned xtalkd over AF_UNIX, checks every response, and prints one
 * `metric <name> <value> <unit>` line per metric. With --trace 1 it then
 * replays the same stream by calling each layer itself (traced.h) and
 * prints per-layer metrics instead. The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The exit code is
 * non-zero when any response check failed.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "daemon.h"
#include "runtime/thread_pool.h"
#include "service/engine.h"
#include "telemetry/ledger.h"
#include "traced.h"

namespace perfbench {

namespace {

using xtalk::service::Engine;
using xtalk::service::ServiceRequest;
using xtalk::service::ServiceResponse;

// Why each workload exists and which layers it bypasses is recorded in
// BENCHMARK.json next to these names.
const std::vector<Workload>&
Workloads()
{
    static const std::vector<Workload> all = [] {
        Workload charz_cold{.name = "charz_cold",
                            .clients = 1,
                            .fresh_engine = true,
                            .pool = PoolKind::kSmall,
                            .copies = 1,
                            .scheduler = "greedy"};
        Workload compile_warm{.name = "compile_warm",
                              .clients = 4,
                              .pool = PoolKind::kPaper,
                              .copies = 64};
        Workload simulate_warm{.name = "simulate_warm",
                               .clients = 4,
                               .pool = PoolKind::kPaper,
                               .copies = 16,
                               .scheduler = "greedy",
                               .shots = 8192};
        Workload daemon_parallel{.name = "daemon_parallel",
                                 .clients = 4,
                                 .daemon = true,
                                 .pool = PoolKind::kPaper,
                                 .copies = 64,
                                 .shuffle_labels = true,
                                 .scheduler = "parallel",
                                 .layout = "trivial"};
        return std::vector<Workload>{charz_cold, compile_warm, simulate_warm,
                                     daemon_parallel};
    }();
    return all;
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string xtalkd;
    std::string out = ".";
};

bool
ParseArgs(int argc, char** argv, Args* args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args->seconds = std::stod(value);
        } else if (flag == "--trace") {
            args->trace = value == "1";
        } else if (flag == "--xtalkd") {
            args->xtalkd = value;
        } else if (flag == "--out") {
            args->out = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::vector<PoolRequest>
BuildPool(const Workload& workload, uint64_t seed)
{
    std::vector<PoolRequest> pool;
    for (StreamCircuit& circuit :
         GenerateStream(workload.pool, workload.copies,
                        workload.shuffle_labels, seed)) {
        PoolRequest entry;
        entry.request.id = workload.name + "-" + std::to_string(pool.size());
        entry.request.qasm = circuit.qasm;
        entry.request.scheduler = workload.scheduler;
        entry.request.layout = workload.layout;
        entry.request.simulate_shots = workload.shots;
        entry.wire = entry.request.ToJson();
        entry.circuit = std::move(circuit);
        pool.push_back(std::move(entry));
    }
    return pool;
}

/** Shots in a "counts(N shots)" histogram, summed over its rows; -1
 *  when the header disagrees with the rows. */
long
CountsTotal(const std::string& counts, std::map<std::string, long>* rows)
{
    std::istringstream in(counts);
    std::string header;
    std::getline(in, header);
    long declared = -1;
    if (std::sscanf(header.c_str(), "counts(%ld shots)", &declared) != 1) {
        return -1;
    }
    long total = 0;
    std::string line;
    while (std::getline(in, line)) {
        const size_t colon = line.find(':');
        if (colon == std::string::npos) {
            continue;
        }
        const long n = std::stol(line.substr(colon + 1));
        size_t begin = line.find_first_not_of(' ');
        if (rows != nullptr) {
            (*rows)[line.substr(begin, colon - begin)] = n;
        }
        total += n;
    }
    return total == declared ? total : -1;
}

/** What the untraced run observed; guarded by `mutex` while clients run. */
struct RunLog {
    std::mutex mutex;
    std::vector<Reference> references;
    std::vector<std::string> problems;
    Clock::time_point start;
    /** Per response, in completion order: latency, completion time (s
     *  after `start`) and whether it was ok. */
    std::vector<double> latency_ms;
    std::vector<double> done_s;
    std::vector<bool> done_ok;
    /** Serving-process CPU seconds sampled about once a second, as (s
     *  after `start`, cpu); the first at 0, the last when the run ends. */
    std::vector<std::pair<double, double>> cpu_samples;
    std::vector<double> queue_ms;
    std::map<std::string, double> phase_ms;
    long attempted = 0;
    long ok = 0;
    long rejected = 0;
    long cache_hits = 0;
    double generator_cpu_s = 0.0;
};

/** Check one response against the workload's invariants and record it. */
void
Record(const Workload& workload, size_t index, const ServiceResponse& response,
       double latency_ms, RunLog* log)
{
    std::string problem;
    if (response.code != xtalk::StatusCode::kOk) {
        problem = std::string("status ") + response.status() + ": " +
                  response.error;
    } else if (workload.shots > 0 &&
               CountsTotal(response.counts, nullptr) != workload.shots) {
        problem = "counts do not add up to the shots requested";
    }
    const std::string projection = response.ToJson(false);
    std::lock_guard<std::mutex> lock(log->mutex);
    ++log->attempted;
    log->latency_ms.push_back(latency_ms);
    log->done_s.push_back(MsSince(log->start) / 1000.0);
    log->done_ok.push_back(problem.empty());
    log->queue_ms.push_back(response.queue_ms);
    if (response.code == xtalk::StatusCode::kRejected) {
        ++log->rejected;
    }
    if (response.cache_hit) {
        ++log->cache_hits;
    }
    for (const auto& phase : response.phases) {
        log->phase_ms[phase.phase] += phase.ms;
    }
    if (!problem.empty()) {
        log->problems.push_back(response.id + ": " + problem);
        return;
    }
    ++log->ok;
    Reference& reference = log->references[index];
    if (!reference.set) {
        reference.set = true;
        reference.projection = projection;
        reference.qasm = response.qasm;
        reference.counts = response.counts;
        reference.success_probability = response.success_probability;
    } else if (projection != reference.projection) {
        log->problems.push_back(response.id +
                                ": response differs from an earlier one for "
                                "the same request");
    }
}

/** Serve one request: over @p connection when the workload talks to the
 *  daemon, else in process (on a fresh Engine for charz_cold). */
ServiceResponse
Serve(const Workload& workload, Engine* engine, Connection& connection,
      const PoolRequest& entry)
{
    if (workload.daemon) {
        std::string line;
        ServiceResponse response;
        std::string error;
        if (!connection.RoundTrip(entry.wire, &line) ||
            !ServiceResponse::FromJson(line, &response, &error)) {
            response = xtalk::service::MakeErrorResponse(
                entry.request, xtalk::StatusCode::kIoError,
                "daemon connection failed " + error);
        }
        return response;
    }
    if (workload.fresh_engine) {
        Engine fresh;
        return fresh.Handle(entry.request);
    }
    return engine->Handle(entry.request);
}

/** Closed loop: @p clients clients send pool requests round-robin until
 *  @p seconds pass or @p limit requests went out, while @p server_cpu (if
 *  set) is sampled every second. Returns the wall time until the last
 *  reply, s. */
double
ClosedLoop(const Workload& workload, const std::vector<PoolRequest>& pool,
           Engine* engine, const DaemonProcess& daemon, int clients,
           double seconds, size_t limit,
           const std::function<double()>& server_cpu, RunLog* log)
{
    std::atomic<size_t> next{0};
    const Clock::time_point start = Clock::now();
    log->start = start;
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::atomic<bool> clients_done{false};
    std::thread monitor;
    if (server_cpu) {
        log->cpu_samples.emplace_back(0.0, server_cpu());
        monitor = std::thread([&] {
            for (int tick = 1; !clients_done.load();) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                const double at = MsSince(start) / 1000.0;
                if (at >= tick && !clients_done.load()) {
                    log->cpu_samples.emplace_back(at, server_cpu());
                    ++tick;
                }
            }
        });
    }
    auto client = [&] {
        Connection connection;
        if (workload.daemon && !connection.Open(daemon.socket_path())) {
            std::lock_guard<std::mutex> lock(log->mutex);
            log->problems.push_back("cannot connect to the daemon");
            return;
        }
        const double cpu0 = ThreadCpuSeconds();
        double serving_cpu = 0.0;
        for (;;) {
            const size_t n = next.fetch_add(1);
            if (n >= limit || Clock::now() >= end) {
                break;
            }
            const size_t index = n % pool.size();
            const double serve_cpu0 = ThreadCpuSeconds();
            const Clock::time_point sent = Clock::now();
            const ServiceResponse response =
                Serve(workload, engine, connection, pool[index]);
            const double latency_ms = MsSince(sent);
            if (!workload.daemon) {
                // In process the client thread also runs the engine; only
                // the rest of its CPU is load-generator work.
                serving_cpu += ThreadCpuSeconds() - serve_cpu0;
            }
            Record(workload, index, response, latency_ms, log);
        }
        const double generator = ThreadCpuSeconds() - cpu0 - serving_cpu;
        std::lock_guard<std::mutex> lock(log->mutex);
        log->generator_cpu_s += generator;
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back(client);
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const double wall_s = MsSince(start) / 1000.0;
    if (server_cpu) {
        clients_done.store(true);
        monitor.join();
        log->cpu_samples.emplace_back(wall_s, server_cpu());
    }
    return wall_s;
}

/** End-to-end figures of one timed run. */
struct Steady {
    double throughput_rps = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p90_ms = 0.0;
    double cpu_ms_per_req = 0.0;
    size_t windows = 0;
};

/**
 * Cut the run at its CPU samples (about every second), merge neighbouring
 * slices until each window holds at least 100 responses (so its p90 has
 * ten beyond it), and report the median of each figure over the windows.
 * A burst of outside load on a shared host then moves one window, not
 * the result. A slow workload gets one window: the whole run.
 */
Steady
SteadyMetrics(const RunLog& log)
{
    constexpr size_t kMinResponses = 100;
    const auto& cuts = log.cpu_samples;
    const size_t slices = cuts.size() - 1;
    std::vector<size_t> slice_of(log.done_s.size());
    std::vector<size_t> per_slice(slices, 0);
    for (size_t r = 0; r < log.done_s.size(); ++r) {
        size_t slice = 0;
        while (slice + 1 < slices && log.done_s[r] > cuts[slice + 1].first) {
            ++slice;
        }
        slice_of[r] = slice;
        ++per_slice[slice];
    }
    // window_end[w] is the cut closing window w; leftovers join the last.
    std::vector<size_t> window_end;
    size_t count = 0;
    for (size_t slice = 0; slice < slices; ++slice) {
        count += per_slice[slice];
        if (count >= kMinResponses) {
            window_end.push_back(slice + 1);
            count = 0;
        }
    }
    if (window_end.empty()) {
        window_end.push_back(slices);
    }
    window_end.back() = slices;
    std::vector<size_t> window_of_slice(slices);
    for (size_t slice = 0, w = 0; slice < slices; ++slice) {
        w += slice >= window_end[w] ? 1 : 0;
        window_of_slice[slice] = w;
    }
    std::vector<std::vector<double>> latencies(window_end.size());
    std::vector<long> ok(window_end.size(), 0);
    for (size_t r = 0; r < log.done_s.size(); ++r) {
        const size_t w = window_of_slice[slice_of[r]];
        latencies[w].push_back(log.latency_ms[r]);
        ok[w] += log.done_ok[r] ? 1 : 0;
    }
    std::vector<double> rate, p50, p90, cpu_ms;
    for (size_t w = 0, first = 0; w < window_end.size();
         first = window_end[w], ++w) {
        const double span_s = cuts[window_end[w]].first - cuts[first].first;
        const double cpu_s = cuts[window_end[w]].second - cuts[first].second;
        rate.push_back(ok[w] / span_s);
        p50.push_back(Percentile(latencies[w], 50));
        p90.push_back(Percentile(latencies[w], 90));
        cpu_ms.push_back(cpu_s * 1000.0 /
                         std::max<size_t>(1, latencies[w].size()));
    }
    return Steady{Percentile(rate, 50), Percentile(p50, 50),
                  Percentile(p90, 50), Percentile(cpu_ms, 50),
                  window_end.size()};
}

/** Engine build plus its first request: what a fresh server pays before
 *  serving (one-time Clifford/Z3 init, the snapshot-cache fill). */
std::unique_ptr<Engine>
SetUpEngine(const PoolRequest& first, double* seconds)
{
    const Clock::time_point start = Clock::now();
    auto engine = std::make_unique<Engine>();
    const ServiceResponse response = engine->Handle(first.request);
    *seconds = std::chrono::duration<double>(Clock::now() - start).count();
    if (response.code != xtalk::StatusCode::kOk) {
        throw std::runtime_error("set-up request failed: " + response.error);
    }
    return engine;
}

/** Set-up time in a forked child, so one-time process init is paid
 *  again; -1 on failure. Must run before this process starts a thread. */
double
SetUpInChild(const PoolRequest& first)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        return -1.0;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        double seconds = -1.0;
        try {
            SetUpEngine(first, &seconds);
        } catch (...) {
            seconds = -1.0;
        }
        const ssize_t written = ::write(fds[1], &seconds, sizeof(seconds));
        ::_exit(written == sizeof(seconds) ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = -1.0;
    if (pid < 0 || ::read(fds[0], &seconds, sizeof(seconds)) !=
                       static_cast<ssize_t>(sizeof(seconds))) {
        seconds = -1.0;
    }
    ::close(fds[0]);
    int status = 0;
    if (pid > 0) {
        ::waitpid(pid, &status, 0);
    }
    return seconds;
}

std::string
CpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            return line.substr(line.find(':') + 2);
        }
    }
    return "unknown";
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
PrintResult(bool correct, long attempted, long failed,
            const std::vector<Metric>& metrics)
{
    std::ostringstream json;
    json << std::setprecision(10);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
             << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << "\n";
}

void
PrintMetrics(const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics) {
        std::cout << "metric " << m.name << " " << std::setprecision(10)
                  << m.value << " " << m.unit << "\n";
    }
}

int
Run(const Args& args)
{
    const Workload* found = nullptr;
    for (const Workload& w : Workloads()) {
        if (w.name == args.workload) {
            found = &w;
        }
    }
    if (found == nullptr) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }
    const Workload& workload = *found;
    if (workload.daemon && args.xtalkd.empty()) {
        std::cerr << "--xtalkd is required for " << workload.name << "\n";
        return 2;
    }
    const std::vector<PoolRequest> pool = BuildPool(workload, args.seed);

    // Set-up, several times; the median is reported. Each pays for the
    // server's start and its first request. In process, all but the last
    // run in forked children so each pays one-time process init again. A
    // daemon set-up takes milliseconds, so it is repeated more.
    const int setups = workload.daemon ? 21 : 3;
    std::vector<double> setup_s;
    std::unique_ptr<Engine> engine;
    DaemonProcess daemon;
    const std::string socket_path =
        args.out + "/xtalkd." + std::to_string(::getpid()) + ".sock";
    for (int rep = 0; rep < setups; ++rep) {
        std::string error;
        if (workload.daemon) {
            const Clock::time_point start = Clock::now();
            bool ok = daemon.Start(args.xtalkd, socket_path,
                                   workload.clients, &error);
            if (ok) {
                Connection first;
                std::string reply;
                ok = first.Open(socket_path) &&
                     first.RoundTrip(pool.front().wire, &reply) &&
                     reply.find("\"status\":\"ok\"") != std::string::npos;
            }
            if (!ok) {
                std::cerr << "error: daemon set-up failed " << error << "\n";
                return 1;
            }
            setup_s.push_back(
                std::chrono::duration<double>(Clock::now() - start).count());
            if (rep + 1 < setups) {
                daemon.Stop();
            }
        } else if (rep + 1 < setups) {
            setup_s.push_back(SetUpInChild(pool.front()));
        } else {
            double seconds = 0.0;
            engine = SetUpEngine(pool.front(), &seconds);
            setup_s.push_back(seconds);
        }
        if (setup_s.back() < 0) {
            std::cerr << "error: set-up failed\n";
            return 1;
        }
    }

    std::cout << "fingerprint nproc=" << std::thread::hardware_concurrency()
              << " cpu=\"" << CpuModel() << "\" pool_threads="
              << xtalk::runtime::ThreadPool::DefaultThreadCount()
              << " build=" << PERFBENCH_BUILD_TYPE << "\n";
    std::cout << "workload " << workload.name << " seed=" << args.seed
              << " clients=" << workload.clients
              << " distinct_requests=" << pool.size()
              << " scheduler=" << workload.scheduler
              << " layout=" << workload.layout << " shots=" << workload.shots
              << " front=" << (workload.daemon ? "xtalkd" : "engine") << "\n";

    RunLog log;
    log.references.resize(pool.size());
    // Reference pass: every distinct request once, from one client. The
    // loaded run below must reproduce these bytes exactly.
    if (!workload.fresh_engine) {
        ClosedLoop(workload, pool, engine.get(), daemon, 1, 1e9, pool.size(),
                   nullptr, &log);
    }
    RunLog timed;
    timed.references = log.references;
    const pid_t server = workload.daemon ? daemon.pid() : ::getpid();
    const std::function<double()> server_cpu = [&] {
        return workload.daemon ? ProcessCpuSeconds(server) : SelfCpuSeconds();
    };
    const double wall_s =
        ClosedLoop(workload, pool, engine.get(), daemon, workload.clients,
                   args.seconds, SIZE_MAX, server_cpu, &timed);
    const double server_cpu_s =
        timed.cpu_samples.back().second - timed.cpu_samples.front().second;
    const Steady steady = SteadyMetrics(timed);
    const double peak_rss_mb = PeakRssMb(server);
    if (workload.daemon) {
        // Reported, not failed: no response check depends on the exit.
        const int status = daemon.Stop();
        if (status != 0) {
            std::cout << "warning xtalkd exit status " << status << "\n";
        }
    }

    long attempted = log.attempted + timed.attempted;
    long failed = (log.attempted - log.ok) + (timed.attempted - timed.ok);
    std::vector<std::string> problems = log.problems;
    problems.insert(problems.end(), timed.problems.begin(),
                    timed.problems.end());

    std::vector<double> success;
    std::vector<double> miss_rate;
    std::string projections;
    for (size_t i = 0; i < pool.size(); ++i) {
        const Reference& reference = timed.references[i];
        if (!reference.set) {
            continue;
        }
        success.push_back(reference.success_probability);
        projections += reference.projection + "\n";
        if (!pool[i].circuit.expected_bits.empty() && workload.shots > 0) {
            std::map<std::string, long> rows;
            CountsTotal(reference.counts, &rows);
            miss_rate.push_back(
                1.0 - static_cast<double>(rows[pool[i].circuit.expected_bits]) /
                          workload.shots);
        }
    }
    const double untraced_p50 = Percentile(timed.latency_ms, 50);
    const double client_share =
        workload.daemon
            ? timed.generator_cpu_s / (timed.generator_cpu_s + server_cpu_s)
            : timed.generator_cpu_s / server_cpu_s;

    const std::vector<Metric> end_to_end{
        {"throughput_rps", steady.throughput_rps, "req/s"},
        {"latency_p50_ms", steady.latency_p50_ms, "ms"},
        {"latency_p90_ms", steady.latency_p90_ms, "ms"},
        {"cpu_ms_per_req", steady.cpu_ms_per_req, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", Percentile(setup_s, 50), "s"},
        {"modeled_success_prob", Mean(success), "prob"},
    };
    std::cout << "requests timed=" << timed.attempted << " ok=" << timed.ok
              << " wall_s=" << wall_s << " latency_samples="
              << timed.latency_ms.size() << " windows=" << steady.windows
              << " whole_run_rps=" << timed.ok / wall_s
              << " whole_run_p50_ms=" << untraced_p50
              << " whole_run_p90_ms=" << Percentile(timed.latency_ms, 90)
              << (timed.latency_ms.size() < 100
                      ? " (fewer than 100: latency_p90_ms is indicative only)"
                      : "")
              << "\n";
    std::cout << "metric failed_ratio "
              << (attempted ? static_cast<double>(failed) / attempted : 0.0)
              << " ratio\n";
    if (!miss_rate.empty()) {
        std::cout << "metric sim_error_rate " << Mean(miss_rate)
                  << " ratio (hidden-shift shots missing the shift, "
                  << miss_rate.size() << " circuits)\n";
    }
    std::cout << "load_generator client_cpu_share=" << client_share
              << " generator_cpu_s=" << timed.generator_cpu_s
              << " server_cpu_s=" << server_cpu_s << "\n";
    std::cout << "setup_s samples=";
    for (double s : setup_s) {
        std::cout << s << " ";
    }
    std::cout << "\n";
    std::cout << "digest " << workload.name << " "
              << xtalk::telemetry::FnvHex(projections) << " over "
              << success.size() << " distinct responses\n";

    std::vector<Metric> per_layer;
    if (args.trace) {
        TracedReplay replay(workload, pool, timed.references);
        replay.Setup();
        const TracedResult traced = replay.Run(args.seconds);
        const std::string spans_path =
            args.out + "/spans-" + workload.name + ".jsonl";
        if (!replay.WriteSpans(spans_path)) {
            problems.push_back("cannot write " + spans_path);
        }
        attempted += traced.attempted;
        failed += traced.failed;
        problems.insert(problems.end(), traced.problems.begin(),
                        traced.problems.end());

        auto self_ms = [&](const char* name) {
            auto it = traced.self_ms.find(name);
            return it == traced.self_ms.end() ? 0.0 : Mean(it->second);
        };
        auto self_us = [&](const char* name) { return self_ms(name) * 1e3; };
        const double overhead_ms =
            Percentile(traced.request_ms, 50) - untraced_p50;
        const auto schedule_it = traced.self_ms.find("scheduler.schedule");
        const std::vector<double> schedule_ms =
            schedule_it == traced.self_ms.end() ? std::vector<double>{}
                                                : schedule_it->second;
        const double compiles = std::max(1L, timed.attempted);
        per_layer = {
            {"service.wire_decode_us", self_us("service.wire_decode"), "us"},
            {"service.wire_encode_us", self_us("service.wire_encode"), "us"},
            {"service.admission_queue_ms_p90", Percentile(timed.queue_ms, 90),
             "ms"},
            {"service.rejected_ratio", timed.rejected / compiles, "ratio"},
            {"service.cache_hit_ratio", timed.cache_hits / compiles, "ratio"},
            {"circuit.parse_us", self_us("circuit.parse"), "us"},
            {"circuit.emit_us", self_us("circuit.emit"), "us"},
            {"circuit.gates_in", Mean(traced.gates_in), "count"},
            {"transpile.layout_us", self_us("transpile.layout"), "us"},
            {"transpile.route_us", self_us("transpile.route"), "us"},
            {"transpile.swaps_added", Mean(traced.swaps_added), "count"},
            {"scheduler.schedule_ms_p50", Percentile(schedule_ms, 50), "ms"},
            {"scheduler.schedule_ms_p90", Percentile(schedule_ms, 90), "ms"},
            {"scheduler.degraded_ratio", Mean(traced.degraded), "ratio"},
            {"scheduler.schedule_solo_ms",
             Percentile(traced.solo_schedule_ms, 50), "ms"},
            {"compiler.lower_us", self_us("compiler.lower"), "us"},
            {"compiler.estimate_us", self_us("compiler.estimate"), "us"},
            {"characterization.plan_ms", Mean(traced.charz_plan_ms), "ms"},
            {"characterization.run_ms", Mean(traced.charz_run_ms), "ms"},
            {"characterization.cpu_s", Mean(traced.charz_cpu_s), "s"},
            {"characterization.experiments", Mean(traced.charz_experiments),
             "count"},
            {"runtime.run_ms", self_ms("runtime.run"), "ms"},
            {"runtime.chunks", Mean(traced.chunks), "count"},
            {"runtime.parallel_efficiency", Mean(traced.parallel_efficiency),
             "ratio"},
            {"sim.us_per_shot", Mean(traced.us_per_shot), "us"},
            {"trace.overhead_ms", overhead_ms, "ms"},
        };

        // The engine's own attribution against the outside-in sums.
        const double replayed =
            std::max<size_t>(1, traced.request_ms.size());
        auto total_ms = [&](std::initializer_list<const char*> names) {
            double sum = 0.0;
            for (const char* name : names) {
                auto it = traced.total_ms.find(name);
                if (it != traced.total_ms.end()) {
                    for (double v : it->second) {
                        sum += v;
                    }
                }
            }
            return sum / replayed;
        };
        const std::vector<std::pair<const char*, double>> outside_in{
            {"parse", total_ms({"circuit.parse"})},
            {"characterize", total_ms({"characterization"})},
            {"schedule",
             total_ms({"transpile.layout", "transpile.route",
                       "scheduler.schedule", "compiler.lower",
                       "compiler.estimate"})},
            {"simulate", total_ms({"runtime.run"})},
            {"emit", total_ms({"circuit.emit"})},
        };
        for (const auto& [phase, replay_ms] : outside_in) {
            const double engine_ms = timed.phase_ms[phase] / compiles;
            std::cout << "phase_check phase=" << phase
                      << " engine_ms=" << engine_ms
                      << " replay_ms=" << replay_ms
                      << " diff_ms=" << replay_ms - engine_ms << "\n";
        }
        std::cout << "tracing overhead_ms=" << overhead_ms
                  << " (traced replay p50 minus untraced p50; "
                  << traced.request_ms.size() << " replayed requests)\n";
    }

    PrintMetrics(end_to_end);
    PrintMetrics(per_layer);
    for (const std::string& problem : problems) {
        std::cout << "check_failed " << problem << "\n";
    }
    const bool correct = problems.empty() && failed == 0;
    PrintResult(correct, attempted, failed,
                args.trace ? per_layer : end_to_end);
    return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char** argv)
{
    perfbench::Args args;
    if (!perfbench::ParseArgs(argc, argv, &args)) {
        std::cerr << "usage: service_load --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> --xtalkd <path> "
                     "[--out <dir>]\n";
        return 2;
    }
    xtalk::SetLogLevel(xtalk::LogLevel::kQuiet);
    int code = 1;
    try {
        code = perfbench::Run(args);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        code = 1;
    }
    std::cout.flush();
    // Skip static destructors: the shared worker pool outlives them.
    std::_Exit(code);
}
