/**
 * @file
 * xtalkd — the crosstalk-adaptive compiler as a long-running service.
 *
 * Serves the same service::Engine the `xtalkc` CLI wraps, over a local
 * AF_UNIX stream socket speaking newline-delimited JSON: one
 * xtalk.request.v1 object per line in, one xtalk.response.v1 object
 * per line out, in request order per connection (see docs/SERVICE.md).
 * A request compiled here is bit-identical to the same request through
 * `xtalkc` — both are one Engine::Handle call.
 *
 *   xtalkd --socket /tmp/xtalkd.sock --max-concurrent 4 &
 *   tools/xtalkd_client.py --socket /tmp/xtalkd.sock --qasm in.qasm
 *
 * Concurrency model: thread-per-connection frontends over one Engine,
 * whose admission gate bounds the pipeline — at most --max-concurrent
 * compiles run at once, at most --max-queue more wait for a slot, and
 * anything beyond that is rejected immediately with a structured
 * "rejected" response (overload degrades to fast honest rejections,
 * not unbounded latency). `ping`, `stats`, and `shutdown` bypass the
 * gate. Per-request deadlines (`deadline_ms`) keep ticking while
 * queued and clamp the SMT solver budget once running.
 *
 * Concurrent requests needing the same on-the-fly characterization
 * share one single-flight measurement through the engine's snapshot
 * cache; responses carry `cache_hit` so clients can tell.
 *
 * Observability: every request is traced end to end — the connection
 * adopts the client's trace id (request `trace` object) or mints one,
 * and every journal event, span, ledger record, and response between
 * `svc.request.begin` and `svc.request.end` carries it (see
 * docs/OBSERVABILITY.md). The `stats` kind answers a live
 * xtalk.svcstats.v1 snapshot (tools/xtalk_top.py renders it).
 * --journal / --stats-json / --metrics-prom / --trace-json dump the
 * flight-recorder journal (svc.accept / svc.request.begin / svc.start
 * / svc.done / svc.request.end / svc.reject / svc.timeout events),
 * the metric registry (svc.requests, svc.request_ms,
 * svc.queue.depth[_hwm], svc.inflight[_hwm], svc.cache.hits/misses,
 * svc.rejected), and the Chrome trace at shutdown; --ledger appends
 * one RunRecord per compile request as it completes. Shutdown is
 * graceful on SIGINT/SIGTERM, a `shutdown` request, or after
 * --max-requests: stop accepting, drain in-flight connections, write
 * telemetry, unlink the socket.
 */
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cli_support.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/status.h"
#include "faults/faults.h"
#include "runtime/thread_pool.h"
#include "service/api.h"
#include "service/engine.h"
#include "telemetry/journal.h"
#include "telemetry/ledger.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"

using namespace xtalk;

namespace {

struct Options {
    std::string socket_path;
    std::string ledger_path;
    cli::TelemetryPaths telemetry;
    std::string log_level;
    std::string faults;
    service::EngineOptions engine;    // Admission gate and cache size.
    int threads = 0;
    long max_requests = 0;            // 0 = unlimited
    long max_line_bytes = 1 << 20;    // Request-line cap (1 MiB).
    bool help = false;
};

void
PrintUsage()
{
    const service::EngineOptions defaults;
    std::cout <<
        "usage: xtalkd --socket <path> [options]\n"
        "  --socket <path>        AF_UNIX socket to listen on (required;\n"
        "                         an existing file there is replaced)\n"
        "  --max-concurrent <n>   compile requests run at once (default "
        << defaults.admission.max_concurrent << ";\n"
        "                         0 rejects every compile — test mode)\n"
        "  --max-queue <n>        requests that may wait for a run slot\n"
        "                         beyond the running ones (default "
        << defaults.admission.max_queue << ");\n"
        "                         requests past the queue are rejected\n"
        "                         immediately with status 'rejected'\n"
        "  --max-requests <n>     shut down after serving n requests\n"
        "                         (0 = serve forever; for CI smoke runs)\n"
        "  --max-line-bytes <n>   longest accepted request line (default\n"
        "                         1048576); an oversized line gets a\n"
        "                         structured error and the connection\n"
        "                         is closed\n"
        "  --cache-entries <n>    snapshot-cache capacity (default "
        << defaults.cache_entries << ";\n"
        "                         0 = unbounded); see svc.cache.evictions\n"
        "  --threads <n>          worker threads for simulation; same\n"
        "                         precedence as xtalkc: --threads beats\n"
        "                         XTALK_THREADS beats hardware threads\n"
        "  --faults <plan>        inject deterministic faults (overrides\n"
        "                         XTALK_FAULTS; see docs/RESILIENCE.md)\n"
        "  --journal <file>       dump the event journal as JSONL at\n"
        "                         shutdown (also armed as a crash dump)\n"
        "  --ledger <file>        append one run record per compile\n"
        "                         request as it completes (JSONL)\n"
        "  --stats-json <file>    dump telemetry metrics as JSON at\n"
        "                         shutdown\n"
        "  --trace-json <file>    capture spans and dump a Chrome\n"
        "                         trace_event file at shutdown (one\n"
        "                         async lane per request trace)\n"
        "  --metrics-prom <file>  dump metrics in OpenMetrics text\n"
        "                         format at shutdown\n"
        "  --log-level <level>    quiet | warn | info | debug\n"
        "  --help\n"
        "\n"
        "Protocol: newline-delimited JSON over the socket — one\n"
        "xtalk.request.v1 per line in, one xtalk.response.v1 per line\n"
        "out, in order per connection. See docs/SERVICE.md.\n";
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
        if (arg == "--socket") {
            options->socket_path = next("--socket");
        } else if (arg == "--max-concurrent") {
            options->engine.admission.max_concurrent =
                cli::ParseNumericFlag(arg, next("--max-concurrent"), 0);
        } else if (arg == "--max-queue") {
            options->engine.admission.max_queue =
                cli::ParseNumericFlag(arg, next("--max-queue"), 0);
        } else if (arg == "--max-requests") {
            options->max_requests =
                cli::ParseNumericFlag(arg, next("--max-requests"), 0L);
        } else if (arg == "--max-line-bytes") {
            options->max_line_bytes =
                cli::ParseNumericFlag(arg, next("--max-line-bytes"), 1L);
        } else if (arg == "--cache-entries") {
            options->engine.cache_entries = static_cast<size_t>(
                cli::ParseNumericFlag(arg, next("--cache-entries"), 0L));
        } else if (arg == "--threads") {
            options->threads =
                cli::ParseNumericFlag(arg, next("--threads"), 1);
        } else if (arg == "--faults") {
            options->faults = next("--faults");
        } else if (arg == "--journal") {
            options->telemetry.journal = next("--journal");
        } else if (arg == "--ledger") {
            options->ledger_path = next("--ledger");
        } else if (arg == "--stats-json") {
            options->telemetry.stats_json = next("--stats-json");
        } else if (arg == "--trace-json") {
            options->telemetry.trace_json = next("--trace-json");
        } else if (arg == "--metrics-prom") {
            options->telemetry.metrics_prom = next("--metrics-prom");
        } else if (arg == "--log-level") {
            options->log_level = next("--log-level");
        } else if (arg == "--help" || arg == "-h") {
            options->help = true;
        } else {
            std::cerr << "error: unknown option " << arg << "\n";
            return false;
        }
    }
    return true;
}

// Signal handlers may only touch async-signal-safe state: a stop flag
// and the listening fd (close() is async-signal-safe and unblocks the
// accept loop). The flag is also written by a connection thread on a
// `shutdown` request while the accept loop reads it, so it is an
// atomic, and a lock-free one, which a signal handler may use.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);
static_assert(std::atomic<int>::is_always_lock_free);
std::atomic<int> g_listen_fd{-1};

void
StopListening()
{
    g_stop.store(true);
    const int fd = g_listen_fd.exchange(-1);
    if (fd >= 0) {
        // shutdown() before close(): on Linux, close() alone does not
        // wake a thread blocked in accept(), shutdown() does (both are
        // async-signal-safe).
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
}

void
HandleSignal(int)
{
    StopListening();
}

/** Live connection fds, so shutdown can unblock their pending reads
 *  (shutdown(SHUT_RD) makes a blocked read return 0 = clean EOF)
 *  without yanking responses still being written. */
class ConnectionRegistry {
  public:
    void Add(int fd)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fds_.insert(fd);
    }
    void Remove(int fd)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fds_.erase(fd);
    }
    void ShutdownReads()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int fd : fds_) {
            ::shutdown(fd, SHUT_RD);
        }
    }

  private:
    std::mutex mutex_;
    std::set<int> fds_;
};

/** Everything one connection thread needs, shared across all of them. */
struct Daemon {
    Options options;
    service::Engine engine;
    ConnectionRegistry connections;
    std::mutex ledger_mutex;
    std::atomic<long> requests_served{0};
    std::atomic<long> connection_seq{0};
    std::atomic<long> ledger_seq{0};

    // Connection threads are detached (a joinable-until-shutdown vector
    // would hoard one finished thread's stack per connection, without
    // bound, for the daemon's lifetime), so drain is a counter + condvar
    // instead of join(): the acceptor increments before spawning, the
    // connection thread decrements as its very last daemon access, and
    // shutdown waits for zero.
    std::mutex drain_mutex;
    std::condition_variable drained;
    long active_connections = 0;

    explicit Daemon(const Options& opts)
        : options(opts), engine(opts.engine)
    {
    }
};

/**
 * Frame @p line and push it down the socket, looping across short
 * write()s until every byte is flushed or the peer is gone. Partial
 * sends are journaled as `svc.write.short` (they are normal under
 * socket backpressure — a slow or stalled reader — but a flood of
 * them is the signature of a client-side drain problem). Never throws:
 * the caller runs on a detached connection thread, so an injected
 * `svc.write` fault is journaled and reported as a failed write (the
 * connection closes), exactly like a vanished client.
 */
bool
WriteLine(int fd, std::string line)
{
    try {
        faults::MaybeInject("svc.write");
    } catch (const Error& e) {
        telemetry::JournalEmit("svc.write.fault", {{"fd", fd}});
        Warn(std::string("write fault: ") + e.what());
        return false;
    }
    line.push_back('\n');
    size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n =
            ::send(fd, line.data() + sent, line.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;  // EPIPE/ECONNRESET: peer is gone.
        }
        sent += static_cast<size_t>(n);
        if (sent < line.size()) {
            telemetry::JournalEmit(
                "svc.write.short",
                {{"fd", fd},
                 {"sent", static_cast<long>(sent)},
                 {"total", static_cast<long>(line.size())}});
        }
    }
    return true;
}

void
AppendLedger(Daemon* daemon, const service::ServiceRequest& request,
             const service::ServiceResponse& response, long seq)
{
    if (daemon->options.ledger_path.empty()) {
        return;
    }
    telemetry::RunRecord record;
    record.run_id = telemetry::RunId() + "." + std::to_string(seq);
    record.when = telemetry::Iso8601UtcNow();
    service::FillRunRecord(request, response, &record);
    record.metrics["queue_ms"] = response.queue_ms;
    record.metrics["run_ms"] = response.run_ms;
    record.metrics["cache_hit"] = response.cache_hit ? 1.0 : 0.0;
    std::string error;
    std::lock_guard<std::mutex> lock(daemon->ledger_mutex);
    if (!telemetry::AppendRunRecord(daemon->options.ledger_path, record,
                                    &error)) {
        Warn("ledger append failed: " + error);
    }
}

void
ServeConnection(Daemon* daemon, int fd, long conn_id)
{
    telemetry::SetCurrentThreadName("conn-" + std::to_string(conn_id));
    // An oversized line gets a structured error, then the connection
    // closes: the rest of that line is unframeable garbage.
    const auto reject_oversized = [&](size_t bytes) {
        telemetry::JournalEmit("svc.oversized",
                               {{"conn", conn_id},
                                {"bytes", static_cast<long>(bytes)}});
        WriteLine(fd, MakeErrorResponse(
                          service::ServiceRequest{}, StatusCode::kError,
                          "request line exceeds --max-line-bytes (" +
                              std::to_string(daemon->options.max_line_bytes) +
                              "); closing connection")
                          .ToJson());
    };
    std::string buffer;
    char chunk[4096];
    bool open = true;
    while (open) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            break;  // EOF (possibly forced by ShutdownReads) or error.
        }
        buffer.append(chunk, static_cast<size_t>(n));
        const size_t cap =
            static_cast<size_t>(daemon->options.max_line_bytes);
        if (buffer.find('\n') == std::string::npos && buffer.size() > cap) {
            // A line that has already outgrown the cap can never become
            // a valid request; reject it while the headers of the flood
            // are still cheap.
            reject_oversized(buffer.size());
            break;
        }
        size_t newline;
        while (open && (newline = buffer.find('\n')) != std::string::npos) {
            const std::string line = buffer.substr(0, newline);
            buffer.erase(0, newline + 1);
            if (line.empty()) {
                continue;
            }
            if (line.size() > cap) {
                reject_oversized(line.size());
                open = false;
                break;
            }
            service::ServiceRequest request;
            std::string parse_error;
            // Parse before the fault seam so the connection can adopt
            // the client's trace id (and echo the request id) even for
            // requests that are about to fail injected reads.
            const bool parsed_ok = service::ServiceRequest::FromJson(
                line, &request, &parse_error);
            // Establish the request's trace context at the edge: the
            // client's id when it sent one, a daemon mint otherwise.
            // Every journal event, span, ledger record, and response
            // for this line — whatever path it exits through — carries
            // this one id.
            telemetry::TraceContext context;
            bool client_trace = false;
            if (parsed_ok && !request.trace_id.empty() &&
                telemetry::ParseTraceId(request.trace_id, &context)) {
                context.span = request.span_id != 0
                                   ? request.span_id
                                   : telemetry::MintSpanId();
                client_trace = true;
            } else {
                context = telemetry::MintTraceContext();
            }
            telemetry::ScopedTraceContext trace_scope(context);
            telemetry::JournalEmit("svc.request.begin",
                                   {{"conn", conn_id},
                                    {"id", request.id},
                                    {"kind", request.kind}});
            service::ServiceResponse response;
            // Catch-all per line: Engine::Handle never throws by
            // contract, but an exception that slips through anything
            // below must fail this one request with an "internal"
            // response — escaping the thread would std::terminate the
            // whole daemon on untrusted input.
            try {
                // svc.read: the seam between "bytes arrived" and "a
                // request exists" — chaos plans inject here to prove a
                // poisoned read fails one request, not the daemon.
                faults::MaybeInject("svc.read");
                if (!parsed_ok) {
                    response = MakeErrorResponse(
                        service::ServiceRequest{}, StatusCode::kError,
                        "bad request: " + parse_error);
                } else {
                    response = daemon->engine.Handle(request);
                    if (request.kind == "compile") {
                        AppendLedger(daemon, request, response,
                                     daemon->ledger_seq.fetch_add(1));
                    }
                }
            } catch (const Error& e) {
                // User-class failures (including injected svc.read
                // faults) answer as structured errors, not internals.
                response = MakeErrorResponse(request, StatusCode::kError,
                                             e.what());
            } catch (const std::exception& e) {
                response = MakeErrorResponse(
                    request, StatusCode::kInternal,
                    std::string("internal error: ") + e.what());
            } catch (...) {
                response = MakeErrorResponse(request, StatusCode::kInternal,
                                             "internal error");
            }
            if (response.trace_id.empty()) {
                // Paths that never reached the engine (parse errors,
                // injected read faults) still answer with the
                // connection's trace id.
                response.trace_id = context.trace_id();
                response.trace_client_supplied = client_trace;
            }
            const bool written = WriteLine(fd, response.ToJson());
            if (!written) {
                Warn("client went away mid-response (conn " +
                     std::to_string(conn_id) + ")");
                open = false;
            }
            // One svc.request.end per svc.request.begin, on every exit
            // path — ok, error, rejected, timeout, even a vanished
            // client — so per-trace begin/end pairing is checkable.
            telemetry::JournalEmit("svc.request.end",
                                   {{"conn", conn_id},
                                    {"id", request.id},
                                    {"kind", request.kind},
                                    {"status", response.status()},
                                    {"written", written}});
            const long served = ++daemon->requests_served;
            if (request.kind == "shutdown") {
                Inform("shutdown requested by client");
                StopListening();
                daemon->engine.Close();
                daemon->connections.ShutdownReads();
                open = false;
            } else if (daemon->options.max_requests > 0 &&
                       served >= daemon->options.max_requests) {
                Inform("served " + std::to_string(served) +
                       " requests (--max-requests); shutting down");
                StopListening();
                daemon->engine.Close();
                daemon->connections.ShutdownReads();
                open = false;
            }
        }
    }
    daemon->connections.Remove(fd);
    ::close(fd);
    // Last daemon access: notify under the lock so the drain waiter
    // cannot observe zero and destroy the Daemon while this thread is
    // still inside notify_all().
    std::lock_guard<std::mutex> lock(daemon->drain_mutex);
    --daemon->active_connections;
    daemon->drained.notify_all();
}

int
Listen(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    XTALK_REQUIRE(path.size() < sizeof(addr.sun_path),
                  "socket path too long (" << path.size() << " bytes, max "
                                           << sizeof(addr.sun_path) - 1
                                           << "): " << path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    XTALK_REQUIRE(fd >= 0, "socket(): " << std::strerror(errno));
    ::unlink(path.c_str());  // Replace a stale socket from a dead daemon.
    XTALK_REQUIRE(
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
        "bind(" << path << "): " << std::strerror(errno));
    XTALK_REQUIRE(::listen(fd, 64) == 0,
                  "listen(" << path << "): " << std::strerror(errno));
    return fd;
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
    if (options.help) {
        PrintUsage();
        return 0;
    }
    if (options.socket_path.empty()) {
        std::cerr << "error: --socket is required\n";
        PrintUsage();
        return 2;
    }

    if (!cli::ApplyLogLevel(options.log_level)) {
        return 2;
    }
    // A daemon is always observed: metrics and the journal are cheap
    // (lock-free counters, a bounded ring), and a service without them
    // cannot be debugged after the fact.
    telemetry::SetEnabled(true);
    telemetry::SetJournalEnabled(true);
    if (!options.telemetry.trace_json.empty()) {
        telemetry::SetTracingEnabled(true);
    }
    telemetry::SetCurrentThreadName("acceptor");
    if (!options.telemetry.journal.empty()) {
        telemetry::ArmCrashDump(options.telemetry.journal);
    }
    if (options.threads > 0) {
        runtime::ThreadPool::SetDefaultThreadCount(options.threads);
    }

    try {
        if (!options.faults.empty()) {
            faults::InstallPlan(faults::FaultPlan::Parse(options.faults));
            Inform("fault plan: " + faults::ActivePlanString());
        }

        Daemon daemon(options);
        const int listen_fd = Listen(options.socket_path);
        g_listen_fd.store(listen_fd);
        std::signal(SIGINT, HandleSignal);
        std::signal(SIGTERM, HandleSignal);
        std::signal(SIGPIPE, SIG_IGN);
        Inform("xtalkd listening on " + options.socket_path +
               " (max-concurrent " +
               std::to_string(options.engine.admission.max_concurrent) +
               ", max-queue " +
               std::to_string(options.engine.admission.max_queue) + ")");

        while (!g_stop.load()) {
            const int conn = ::accept(listen_fd, nullptr, nullptr);
            if (conn < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;  // Listener closed by StopListening().
            }
            const long conn_id = ++daemon.connection_seq;
            telemetry::JournalEmit("svc.accept", {{"conn", conn_id}});
            daemon.connections.Add(conn);
            {
                std::lock_guard<std::mutex> lock(daemon.drain_mutex);
                ++daemon.active_connections;
            }
            std::thread(ServeConnection, &daemon, conn, conn_id).detach();
        }
        StopListening();  // Idempotent; covers the max-requests path.
        // Close the gate before draining: a deadline-free request still
        // waiting for a run slot would otherwise block its connection
        // thread forever (ShutdownReads only unblocks reads) and the
        // drain below would never finish.
        daemon.engine.Close();
        daemon.connections.ShutdownReads();
        {
            std::unique_lock<std::mutex> lock(daemon.drain_mutex);
            Inform("draining " +
                   std::to_string(daemon.active_connections) +
                   " connection(s)");
            daemon.drained.wait(lock, [&daemon] {
                return daemon.active_connections == 0;
            });
        }
        ::unlink(options.socket_path.c_str());
        Inform("served " + std::to_string(daemon.requests_served.load()) +
               " request(s); cache " +
               std::to_string(daemon.engine.cache().hits()) + " hit(s) / " +
               std::to_string(daemon.engine.cache().misses()) +
               " miss(es); rejected " +
               std::to_string(
                   telemetry::GetCounter("svc.rejected").value()));
        return cli::WriteTelemetryFiles(options.telemetry) ? 0 : 1;
    } catch (const InternalError& e) {
        std::cerr << "internal error: " << e.what() << "\n"
                  << "this is a bug in xtalk; please report it\n";
        cli::WriteTelemetryFiles(options.telemetry);
        return ExitCodeFor(StatusCode::kInternal);
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        cli::WriteTelemetryFiles(options.telemetry);
        return ExitCodeFor(StatusCode::kError);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        cli::WriteTelemetryFiles(options.telemetry);
        return ExitCodeFor(StatusCode::kIoError);
    }
}
