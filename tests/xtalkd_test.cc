/**
 * @file
 * End-to-end tests for the `xtalkd` daemon: real binary, real AF_UNIX
 * socket, real newline-delimited JSON — the same path a production
 * client takes. Also the home of the CLI/daemon equivalence contract:
 * one request produces byte-identical responses whichever frontend
 * served it (runs the real xtalkc via XTALK_XTALKC_BIN).
 */
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "device/ibmq_devices.h"
#include "experiments/experiments.h"
#include "characterization/io.h"
#include "service/api.h"

#if defined(XTALK_XTALKD_BIN) && defined(XTALK_XTALKC_BIN)

namespace xtalk {
namespace {

using service::ServiceRequest;
using service::ServiceResponse;

const char* kChainQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[4];\n"
    "creg c[4];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "cx q[2],q[3];\n"
    "measure q[0] -> c[0];\n"
    "measure q[1] -> c[1];\n"
    "measure q[2] -> c[2];\n"
    "measure q[3] -> c[3];\n";

/** One daemon process with a unique socket, killed on destruction. */
class DaemonProcess {
  public:
    explicit DaemonProcess(std::vector<std::string> extra_args,
                           const std::string& tag)
    {
        socket_path_ = ::testing::TempDir() + "xtalkd_" + tag + "_" +
                       std::to_string(::getpid()) + ".sock";
        ::unlink(socket_path_.c_str());
        std::vector<std::string> args = {XTALK_XTALKD_BIN, "--socket",
                                         socket_path_, "--log-level",
                                         "quiet"};
        for (std::string& arg : extra_args) {
            args.push_back(std::move(arg));
        }
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& arg : args) {
            argv.push_back(arg.data());
        }
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::execv(argv[0], argv.data());
            ::_exit(127);  // exec failed
        }
    }

    ~DaemonProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
        ::unlink(socket_path_.c_str());
    }

    const std::string& socket_path() const { return socket_path_; }

    /** Block until the daemon accepts connections (or fail the test). */
    bool WaitReady(int timeout_ms = 15000)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms);
        while (std::chrono::steady_clock::now() < deadline) {
            const int fd = TryConnect();
            if (fd >= 0) {
                ::close(fd);
                return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        return false;
    }

    int TryConnect() const
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socket_path_.size() >= sizeof(addr.sun_path)) {
            return -1;
        }
        std::memcpy(addr.sun_path, socket_path_.c_str(),
                    socket_path_.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    /** Reap the daemon and return its exit code (-1 on abnormal exit). */
    int WaitExit()
    {
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    std::string socket_path_;
    pid_t pid_ = -1;
};

/** One NDJSON connection: send a line, read a line. */
class Client {
  public:
    explicit Client(const DaemonProcess& daemon)
        : fd_(daemon.TryConnect())
    {
    }
    ~Client()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }

    bool ok() const { return fd_ >= 0; }

    bool SendLine(const std::string& line)
    {
        std::string framed = line;
        framed.push_back('\n');
        size_t sent = 0;
        while (sent < framed.size()) {
            const ssize_t n = ::send(fd_, framed.data() + sent,
                                     framed.size() - sent, MSG_NOSIGNAL);
            if (n <= 0 && errno != EINTR) {
                return false;
            }
            if (n > 0) {
                sent += static_cast<size_t>(n);
            }
        }
        return true;
    }

    bool RecvLine(std::string* line)
    {
        while (buffer_.find('\n') == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                return false;
            }
            buffer_.append(chunk, static_cast<size_t>(n));
        }
        const size_t newline = buffer_.find('\n');
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
    }

    /** Round-trip one request; fails the test on transport errors. */
    ServiceResponse Call(const ServiceRequest& request)
    {
        EXPECT_TRUE(SendLine(request.ToJson()));
        std::string line;
        EXPECT_TRUE(RecvLine(&line));
        ServiceResponse response;
        std::string error;
        EXPECT_TRUE(ServiceResponse::FromJson(line, &response, &error))
            << error << "\nline: " << line;
        return response;
    }

  private:
    int fd_;
    std::string buffer_;
};

ServiceRequest
ChainCompileRequest(const std::string& id)
{
    ServiceRequest request;
    request.id = id;
    request.qasm = kChainQasm;
    return request;
}

std::string
ReadFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Wall-clock and transport-dependent fields zeroed, everything else
 *  intact: the projection two frontends must agree on byte for byte.
 *  cache_hit says who paid for the measurement, not what was computed,
 *  so it is correlation metadata like id and the timings. */
std::string
Canonical(ServiceResponse response)
{
    response.id.clear();
    response.cache_hit = false;
    response.queue_ms = 0.0;
    response.run_ms = 0.0;
    return response.ToJson(/*include_timing=*/false);
}

TEST(XtalkdTest, PingCompileShutdownLifecycle)
{
    DaemonProcess daemon({}, "lifecycle");
    ASSERT_TRUE(daemon.WaitReady());
    Client client(daemon);
    ASSERT_TRUE(client.ok());

    ServiceRequest ping;
    ping.id = "p1";
    ping.kind = "ping";
    ServiceResponse response = client.Call(ping);
    EXPECT_EQ(response.code, StatusCode::kOk);
    EXPECT_EQ(response.id, "p1");

    ServiceRequest compile = ChainCompileRequest("c1");
    compile.layout = "trivial";
    compile.scheduler = "serial";  // No characterization: fast.
    response = client.Call(compile);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    EXPECT_EQ(response.scheduler_name, "SerialSched");
    EXPECT_NE(response.qasm.find("OPENQASM 2.0;"), std::string::npos);

    ServiceRequest shutdown;
    shutdown.id = "s1";
    shutdown.kind = "shutdown";
    response = client.Call(shutdown);
    EXPECT_EQ(response.code, StatusCode::kOk);
    EXPECT_EQ(daemon.WaitExit(), 0);
}

TEST(XtalkdTest, MalformedLineGetsStructuredError)
{
    DaemonProcess daemon({}, "badline");
    ASSERT_TRUE(daemon.WaitReady());
    Client client(daemon);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.SendLine("this is not json"));
    std::string line;
    ASSERT_TRUE(client.RecvLine(&line));
    ServiceResponse response;
    std::string error;
    ASSERT_TRUE(ServiceResponse::FromJson(line, &response, &error))
        << error;
    EXPECT_EQ(response.code, StatusCode::kError);
    EXPECT_NE(response.error.find("bad request"), std::string::npos);
    // The connection survives a bad line: the next request still works.
    ServiceRequest ping;
    ping.kind = "ping";
    EXPECT_EQ(client.Call(ping).code, StatusCode::kOk);

    // Regression: 1e400 is valid JSON that used to make the number
    // parser throw out_of_range and std::terminate the daemon — one
    // line from any client killed the service. It must answer with a
    // structured error and keep serving.
    ASSERT_TRUE(client.SendLine(
        std::string("{\"schema\":\"") + service::kRequestSchema +
        "\",\"id\":\"huge\",\"simulate_shots\":1e400}"));
    ASSERT_TRUE(client.RecvLine(&line));
    ASSERT_TRUE(ServiceResponse::FromJson(line, &response, &error))
        << error;
    EXPECT_EQ(response.code, StatusCode::kError);
    EXPECT_EQ(client.Call(ping).code, StatusCode::kOk);
}

TEST(XtalkdTest, SaturatedGateRejectsCompilesButAnswersPings)
{
    // max-concurrent 0: every compile is rejected at admission, which
    // makes the rejection path deterministic.
    DaemonProcess daemon({"--max-concurrent", "0", "--max-queue", "0"},
                         "overflow");
    ASSERT_TRUE(daemon.WaitReady());
    Client client(daemon);
    ASSERT_TRUE(client.ok());

    const ServiceResponse rejected =
        client.Call(ChainCompileRequest("r1"));
    EXPECT_EQ(rejected.code, StatusCode::kRejected);
    EXPECT_EQ(rejected.id, "r1");
    EXPECT_NE(rejected.error.find("capacity"), std::string::npos);

    // Protocol chatter bypasses the gate even under saturation.
    ServiceRequest ping;
    ping.kind = "ping";
    EXPECT_EQ(client.Call(ping).code, StatusCode::kOk);
}

TEST(XtalkdTest, CliAndDaemonAreBitIdentical)
{
    // One characterization snapshot shared by both frontends, so the
    // comparison covers the full noise-aware + SMT pipeline.
    const std::string dir = ::testing::TempDir();
    const std::string charz_path = dir + "xtalkd_equiv_charz.txt";
    const std::string qasm_path = dir + "xtalkd_equiv_in.qasm";
    const std::string response_path = dir + "xtalkd_equiv_cli.json";
    {
        const Device device = MakePoughkeepsie();
        RbConfig config;
        config.lengths = {1, 2, 4, 7, 12, 20, 30};
        config.sequences_per_length = 4;
        config.shots = 128;
        config.seed = 99;
        SaveCharacterization(charz_path,
                             CharacterizeDevice(device, config),
                             device.name());
        std::ofstream out(qasm_path);
        out << kChainQasm;
    }

    ServiceRequest request = ChainCompileRequest("equiv");
    request.scheduler = "xtalk";
    request.layout = "noise-aware";
    request.characterization_path = charz_path;
    request.want_report = true;

    // Frontend 1: the CLI (same flags the request encodes).
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --scheduler xtalk --layout noise-aware" +
                                " --characterization " + charz_path +
                                " --report --response-json " +
                                response_path + " " + qasm_path +
                                " > /dev/null 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    ServiceResponse cli_response;
    std::string error;
    ASSERT_TRUE(ServiceResponse::FromJson(ReadFile(response_path),
                                          &cli_response, &error))
        << error;

    // Frontend 2: the daemon, twice (the second run must also agree —
    // serving a request must not perturb the next one).
    DaemonProcess daemon({}, "equiv");
    ASSERT_TRUE(daemon.WaitReady());
    Client client(daemon);
    ASSERT_TRUE(client.ok());
    const ServiceResponse daemon_response = client.Call(request);
    ASSERT_EQ(daemon_response.code, StatusCode::kOk)
        << daemon_response.error;
    const ServiceResponse daemon_again = client.Call(request);

    EXPECT_EQ(Canonical(cli_response), Canonical(daemon_response));
    EXPECT_EQ(Canonical(daemon_response), Canonical(daemon_again));
    EXPECT_EQ(cli_response.scheduler_name, "XtalkSched");
}

TEST(XtalkdTest, ConcurrentClientsShareOneCharacterization)
{
    const std::string tag = std::to_string(::getpid());
    const std::string journal_path =
        ::testing::TempDir() + "xtalkd_cache_journal_" + tag + ".jsonl";
    const std::string prom_path =
        ::testing::TempDir() + "xtalkd_cache_metrics_" + tag + ".prom";
    ::unlink(journal_path.c_str());
    ::unlink(prom_path.c_str());
    DaemonProcess daemon(
        {"--journal", journal_path, "--metrics-prom", prom_path},
        "cache");
    ASSERT_TRUE(daemon.WaitReady());

    // Two clients, two connections, identical requests that need an
    // on-the-fly characterization. The single-flight cache must run
    // the measurement once; the follower joins the leader's flight.
    ServiceRequest request = ChainCompileRequest("cc");
    request.scheduler = "greedy";  // Needs characterization, cheap after.
    request.layout = "trivial";

    ServiceResponse responses[2];
    std::thread clients[2];
    for (int i = 0; i < 2; ++i) {
        clients[i] = std::thread([&, i] {
            Client client(daemon);
            ASSERT_TRUE(client.ok());
            ServiceRequest mine = request;
            mine.id = "cc" + std::to_string(i);
            responses[i] = client.Call(mine);
        });
    }
    for (std::thread& thread : clients) {
        thread.join();
    }
    ASSERT_EQ(responses[0].code, StatusCode::kOk) << responses[0].error;
    ASSERT_EQ(responses[1].code, StatusCode::kOk) << responses[1].error;
    // Exactly one request ran the measurement; the other hit the cache.
    EXPECT_NE(responses[0].cache_hit, responses[1].cache_hit);
    EXPECT_EQ(responses[0].characterization_id,
              responses[1].characterization_id);
    EXPECT_EQ(Canonical(responses[0]), Canonical(responses[1]));

    {
        Client closer(daemon);
        ASSERT_TRUE(closer.ok());
        ServiceRequest shutdown;
        shutdown.kind = "shutdown";
        EXPECT_EQ(closer.Call(shutdown).code, StatusCode::kOk);
    }
    ASSERT_EQ(daemon.WaitExit(), 0);

    // Journal forensics: two svc.done compile records, but only one
    // characterization sequence. The characterizer journals its
    // experiment list once per phase (independent RB bins, then
    // conditional SRB groups), so one measurement logs group 0 exactly
    // twice; a duplicated flight would log it four times.
    const std::string journal = ReadFile(journal_path);
    ASSERT_FALSE(journal.empty());
    size_t done_count = 0;
    size_t group_zero_count = 0;
    std::istringstream lines(journal);
    std::string line;
    while (std::getline(lines, line)) {
        // Match the request id, not any field: the hex trace and span
        // ids on every line may start with "cc" too.
        if (line.find("\"svc.done\"") != std::string::npos &&
            line.find("\"id\":\"cc") != std::string::npos) {
            ++done_count;
        }
        if (line.find("\"charz.experiment\"") != std::string::npos &&
            line.find("\"group\":0,") != std::string::npos) {
            ++group_zero_count;
        }
    }
    EXPECT_EQ(done_count, 2u);
    EXPECT_EQ(group_zero_count, 2u);

    // The exported metrics must tell the same story: one miss (the
    // leader's measurement), one hit (the joined follower).
    const std::string metrics = ReadFile(prom_path);
    EXPECT_NE(metrics.find("xtalk_svc_cache_misses_total 1"),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("xtalk_svc_cache_hits_total 1"),
              std::string::npos)
        << metrics;
    ::unlink(journal_path.c_str());
    ::unlink(prom_path.c_str());
}

// ---------------------------------------------------------------------
// Chaos campaigns: socket-level abuse and service-boundary fault sites.
// Mirrors `tools/xtalkd_client.py --chaos`; these cases pin the hostile
// input contract in-tree: answer structurally or close the connection —
// never hang, never crash, never leak an inflight slot.

/** Value of a ping response's structured `diag` entry; -1 if absent. */
double
DiagnosticValue(const ServiceResponse& response, const std::string& key)
{
    const auto it = response.diag.find(key);
    return it == response.diag.end() ? -1.0 : it->second;
}

/** Ping until inflight and queued both read zero (or fail the test). */
void
AssertDrained(const DaemonProcess& daemon)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (true) {
        Client prober(daemon);
        ASSERT_TRUE(prober.ok());
        ServiceRequest ping;
        ping.kind = "ping";
        const ServiceResponse pong = prober.Call(ping);
        ASSERT_EQ(pong.code, StatusCode::kOk) << pong.error;
        if (DiagnosticValue(pong, "inflight") == 0.0 &&
            DiagnosticValue(pong, "queued") == 0.0) {
            return;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "inflight never drained";
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

TEST(XtalkdChaosTest, OversizedLineRejectedAndDaemonKeepsServing)
{
    DaemonProcess daemon({"--max-line-bytes", "4096"}, "oversized");
    ASSERT_TRUE(daemon.WaitReady());
    {
        Client hostile(daemon);
        ASSERT_TRUE(hostile.ok());
        ASSERT_TRUE(hostile.SendLine(std::string(8192, 'x')));
        std::string line;
        ASSERT_TRUE(hostile.RecvLine(&line));
        ServiceResponse response;
        std::string error;
        ASSERT_TRUE(ServiceResponse::FromJson(line, &response, &error))
            << error << "\nline: " << line;
        EXPECT_EQ(response.code, StatusCode::kError);
        EXPECT_NE(response.error.find("max-line-bytes"),
                  std::string::npos);
        // The rejection closes the connection: the unframeable rest of
        // the blast can never become a request.
        EXPECT_FALSE(hostile.RecvLine(&line));
    }
    AssertDrained(daemon);
    Client closer(daemon);
    ASSERT_TRUE(closer.ok());
    ServiceRequest shutdown;
    shutdown.kind = "shutdown";
    EXPECT_EQ(closer.Call(shutdown).code, StatusCode::kOk);
    EXPECT_EQ(daemon.WaitExit(), 0);
}

TEST(XtalkdChaosTest, TruncatedFramesAndDisconnectsDoNotWedge)
{
    DaemonProcess daemon({}, "truncated");
    ASSERT_TRUE(daemon.WaitReady());
    {
        // Half a request, then gone: the unframed bytes must be
        // discarded with the connection.
        Client hostile(daemon);
        ASSERT_TRUE(hostile.ok());
        const int fd = daemon.TryConnect();
        ASSERT_GE(fd, 0);
        const char partial[] = "{\"schema\":\"xtalk.request.v1\",\"ki";
        ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL),
                  0);
        ::close(fd);
    }
    {
        // A full compile whose client vanishes before the response:
        // the daemon's write fails but the slot must drain.
        Client hostile(daemon);
        ASSERT_TRUE(hostile.ok());
        ServiceRequest compile = ChainCompileRequest("gone");
        compile.layout = "trivial";
        compile.scheduler = "serial";
        ASSERT_TRUE(hostile.SendLine(compile.ToJson()));
        // Destructor closes without reading.
    }
    AssertDrained(daemon);
}

TEST(XtalkdChaosTest, SvcReadFaultFailsOneRequestNotTheDaemon)
{
    DaemonProcess daemon({"--faults", "svc.read:n=1;seed=7"}, "readfault");
    ASSERT_TRUE(daemon.WaitReady());
    Client client(daemon);
    ASSERT_TRUE(client.ok());
    ServiceRequest ping;
    ping.id = "p1";
    ping.kind = "ping";
    const ServiceResponse faulted = client.Call(ping);
    EXPECT_EQ(faulted.code, StatusCode::kError);
    EXPECT_NE(faulted.error.find("injected fault"), std::string::npos)
        << faulted.error;
    // The fault is spent; the same connection keeps working.
    ping.id = "p2";
    const ServiceResponse healed = client.Call(ping);
    EXPECT_EQ(healed.code, StatusCode::kOk) << healed.error;
    EXPECT_EQ(DiagnosticValue(healed, "inflight"), 0.0);
}

TEST(XtalkdChaosTest, SvcWriteFaultDropsTheConnectionNotTheDaemon)
{
    DaemonProcess daemon({"--faults", "svc.write:n=1;seed=7"},
                         "writefault");
    ASSERT_TRUE(daemon.WaitReady());
    {
        Client victim(daemon);
        ASSERT_TRUE(victim.ok());
        ServiceRequest ping;
        ping.kind = "ping";
        ASSERT_TRUE(victim.SendLine(ping.ToJson()));
        // The injected write fault is reported exactly like a vanished
        // peer: response dropped, connection closed — never a crash.
        std::string line;
        EXPECT_FALSE(victim.RecvLine(&line));
    }
    AssertDrained(daemon);
}

TEST(XtalkdChaosTest, CacheFillFaultAnswersStructuredErrorThenHeals)
{
    // A 4-qubit linear device (the chain program's width) keeps the
    // healed request's on-the-fly SRB cheap.
    const std::string device_path =
        ::testing::TempDir() + "xtalkd_chaos_device_" +
        std::to_string(::getpid()) + ".txt";
    {
        std::ofstream device(device_path);
        device << "device tiny\nqubits 4\ntraits 1 1\n";
        for (int q = 0; q < 4; ++q) {
            device << "qubit " << q
                   << " t1_us 50 t2_us 40 readout_err 0.03"
                      " sq_err 0.0005 sq_ns 50 readout_ns 1000\n";
        }
        device << "edge 0 1 cx_err 0.015 cx_ns 400\n"
               << "edge 1 2 cx_err 0.02 cx_ns 450\n"
               << "edge 2 3 cx_err 0.018 cx_ns 420\n";
    }
    DaemonProcess daemon({"--faults", "cache.fill:n=1;seed=3",
                          "--cache-entries", "8"},
                         "cachefault");
    ASSERT_TRUE(daemon.WaitReady());
    Client client(daemon);
    ASSERT_TRUE(client.ok());
    ServiceRequest compile = ChainCompileRequest("cf");
    compile.device_file = device_path;
    compile.layout = "trivial";
    compile.scheduler = "greedy";  // Needs an on-the-fly snapshot.
    const ServiceResponse faulted = client.Call(compile);
    EXPECT_EQ(faulted.code, StatusCode::kError);
    EXPECT_NE(faulted.error.find("injected fault"), std::string::npos)
        << faulted.error;
    // The failed flight was not cached: the retry measures and serves.
    compile.id = "cf2";
    const ServiceResponse healed = client.Call(compile);
    ASSERT_EQ(healed.code, StatusCode::kOk) << healed.error;
    EXPECT_FALSE(healed.cache_hit);
    // And the snapshot it produced is a real cache entry.
    ServiceRequest ping;
    ping.kind = "ping";
    const ServiceResponse pong = client.Call(ping);
    ASSERT_EQ(pong.code, StatusCode::kOk);
    EXPECT_EQ(DiagnosticValue(pong, "cache_size"), 1.0);
    EXPECT_EQ(DiagnosticValue(pong, "inflight"), 0.0);
    ::unlink(device_path.c_str());
}

// ---------------------------------------------------------------------
// End-to-end request tracing: one trace id per request through the
// daemon, the journal, and the single-flight cache.

/** A distinct, valid 32-hex trace id for request slot @p index. */
std::string
TestTraceId(int index)
{
    std::string id(32, '0');
    id[31] = static_cast<char>('1' + index);
    return id;
}

TEST(XtalkdTraceTest, EightConcurrentRequestsKeepTracesSeparate)
{
    const std::string journal_path =
        ::testing::TempDir() + "xtalkd_trace_journal_" +
        std::to_string(::getpid()) + ".jsonl";
    ::unlink(journal_path.c_str());
    DaemonProcess daemon({"--journal", journal_path}, "traces");
    ASSERT_TRUE(daemon.WaitReady());

    constexpr int kRequests = 8;
    ServiceResponse responses[kRequests];
    std::thread clients[kRequests];
    for (int i = 0; i < kRequests; ++i) {
        clients[i] = std::thread([&, i] {
            Client client(daemon);
            ASSERT_TRUE(client.ok());
            ServiceRequest mine = ChainCompileRequest(
                "tr" + std::to_string(i));
            mine.layout = "trivial";
            mine.scheduler = "serial";
            mine.trace_id = TestTraceId(i);
            responses[i] = client.Call(mine);
        });
    }
    for (std::thread& thread : clients) {
        thread.join();
    }
    for (int i = 0; i < kRequests; ++i) {
        ASSERT_EQ(responses[i].code, StatusCode::kOk)
            << responses[i].error;
        // Each response echoes its own client trace, nobody else's.
        EXPECT_EQ(responses[i].trace_id, TestTraceId(i)) << i;
        EXPECT_TRUE(responses[i].trace_client_supplied);
    }

    {
        Client closer(daemon);
        ASSERT_TRUE(closer.ok());
        ServiceRequest shutdown;
        shutdown.kind = "shutdown";
        EXPECT_EQ(closer.Call(shutdown).code, StatusCode::kOk);
    }
    ASSERT_EQ(daemon.WaitExit(), 0);

    // Journal forensics: every event that names request tr<i> carries
    // trace i, every begin has exactly one end under the same trace,
    // and no line mixes one request's id with another's trace.
    const std::string journal = ReadFile(journal_path);
    ASSERT_FALSE(journal.empty());
    int begins[kRequests] = {};
    int ends[kRequests] = {};
    std::istringstream lines(journal);
    std::string line;
    while (std::getline(lines, line)) {
        for (int i = 0; i < kRequests; ++i) {
            const bool names_request =
                line.find("\"id\":\"tr" + std::to_string(i) + "\"") !=
                std::string::npos;
            const bool has_trace =
                line.find("\"trace\":\"" + TestTraceId(i) + "\"") !=
                std::string::npos;
            if (names_request &&
                line.find("\"trace\":\"") != std::string::npos) {
                EXPECT_TRUE(has_trace) << "cross-contaminated: " << line;
            }
            if (names_request && has_trace) {
                if (line.find("\"svc.request.begin\"") !=
                    std::string::npos) {
                    ++begins[i];
                }
                if (line.find("\"svc.request.end\"") !=
                    std::string::npos) {
                    ++ends[i];
                }
            }
        }
    }
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_EQ(begins[i], 1) << "tr" << i;
        EXPECT_EQ(ends[i], 1) << "tr" << i;
    }
    ::unlink(journal_path.c_str());
}

TEST(XtalkdTraceTest, CacheFollowerLinksLeaderFillSpan)
{
    const std::string journal_path =
        ::testing::TempDir() + "xtalkd_link_journal_" +
        std::to_string(::getpid()) + ".jsonl";
    ::unlink(journal_path.c_str());
    DaemonProcess daemon({"--journal", journal_path}, "links");
    ASSERT_TRUE(daemon.WaitReady());

    // Two traced requests race for one characterization; the follower
    // must record which trace paid for the snapshot it reused.
    ServiceResponse responses[2];
    std::thread clients[2];
    for (int i = 0; i < 2; ++i) {
        clients[i] = std::thread([&, i] {
            Client client(daemon);
            ASSERT_TRUE(client.ok());
            ServiceRequest mine = ChainCompileRequest(
                "ln" + std::to_string(i));
            mine.layout = "trivial";
            mine.scheduler = "greedy";  // Needs a characterization.
            mine.trace_id = TestTraceId(i);
            responses[i] = client.Call(mine);
        });
    }
    for (std::thread& thread : clients) {
        thread.join();
    }
    ASSERT_EQ(responses[0].code, StatusCode::kOk) << responses[0].error;
    ASSERT_EQ(responses[1].code, StatusCode::kOk) << responses[1].error;
    ASSERT_NE(responses[0].cache_hit, responses[1].cache_hit);
    const int leader = responses[0].cache_hit ? 1 : 0;
    const int follower = 1 - leader;

    {
        Client closer(daemon);
        ASSERT_TRUE(closer.ok());
        ServiceRequest shutdown;
        shutdown.kind = "shutdown";
        EXPECT_EQ(closer.Call(shutdown).code, StatusCode::kOk);
    }
    ASSERT_EQ(daemon.WaitExit(), 0);

    const std::string journal = ReadFile(journal_path);
    ASSERT_FALSE(journal.empty());
    bool saw_fill = false;
    bool saw_link = false;
    std::istringstream lines(journal);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("\"svc.cache.fill\"") != std::string::npos &&
            line.find("\"fill_span\"") != std::string::npos &&
            line.find("\"trace\":\"" + TestTraceId(leader) + "\"") !=
                std::string::npos) {
            saw_fill = true;
        }
        if (line.find("\"svc.cache.link\"") != std::string::npos &&
            line.find("\"link_trace\":\"" + TestTraceId(leader) +
                      "\"") != std::string::npos &&
            line.find("\"trace\":\"" + TestTraceId(follower) + "\"") !=
                std::string::npos) {
            saw_link = true;
        }
    }
    EXPECT_TRUE(saw_fill)
        << "leader's svc.cache.fill missing its fill_span or trace";
    EXPECT_TRUE(saw_link)
        << "follower's svc.cache.link does not point at the leader";
    ::unlink(journal_path.c_str());
}

TEST(XtalkdTraceTest, SeededCliTraceIsDeterministic)
{
    const std::string dir = ::testing::TempDir();
    const std::string tag = std::to_string(::getpid());
    const std::string qasm_path = dir + "xtalkd_seed_in_" + tag + ".qasm";
    const std::string first_path = dir + "xtalkd_seed_a_" + tag + ".json";
    const std::string second_path =
        dir + "xtalkd_seed_b_" + tag + ".json";
    const std::string charz_path =
        dir + "xtalkd_seed_charz_" + tag + ".txt";
    {
        const Device device = MakePoughkeepsie();
        RbConfig config;
        config.lengths = {1, 2, 4, 7, 12, 20, 30};
        config.sequences_per_length = 4;
        config.shots = 128;
        config.seed = 99;
        SaveCharacterization(charz_path,
                             CharacterizeDevice(device, config),
                             device.name());
        std::ofstream out(qasm_path);
        out << kChainQasm;
    }
    const auto run = [&](const std::string& response_path) {
        const std::string command =
            std::string(XTALK_XTALKC_BIN) +
            " --scheduler serial --characterization " + charz_path +
            " --trace-seed 7 --response-json " + response_path + " " +
            qasm_path + " > /dev/null 2>&1";
        ASSERT_EQ(std::system(command.c_str()), 0) << command;
    };
    run(first_path);
    run(second_path);

    ServiceResponse first;
    ServiceResponse second;
    std::string error;
    ASSERT_TRUE(ServiceResponse::FromJson(ReadFile(first_path), &first,
                                          &error))
        << error;
    ASSERT_TRUE(ServiceResponse::FromJson(ReadFile(second_path),
                                          &second, &error))
        << error;
    // Same seed, same edge-minted trace id — and the documented
    // cross-tool stream (tools/xtalkd_client.py mints the same id).
    EXPECT_EQ(first.trace_id, "63cbe1e459320dd7044c3cd7f43c661c");
    EXPECT_EQ(first.trace_id, second.trace_id);
    EXPECT_TRUE(first.trace_client_supplied);
    // The client-supplied trace is part of the deterministic
    // projection, so the whole projection must be byte-identical.
    EXPECT_EQ(Canonical(first), Canonical(second));
    ::unlink(qasm_path.c_str());
    ::unlink(first_path.c_str());
    ::unlink(second_path.c_str());
    ::unlink(charz_path.c_str());
}

TEST(CliNumericFlags, MalformedNumbersExitTwoNamingTheFlag)
{
    // Each value is malformed for its flag: not a number, out of
    // range, or (1e3 for an integer) trailing characters. The tool must
    // refuse it as a usage error naming the flag, never abort on it or
    // read a prefix.
    const std::string tag = std::to_string(::getpid());
    const std::string qasm_path =
        ::testing::TempDir() + "xtalk_numeric_flags_" + tag + ".qasm";
    const std::string err_path =
        ::testing::TempDir() + "xtalk_numeric_flags_" + tag + ".err";
    {
        std::ofstream out(qasm_path);
        out << kChainQasm;
    }
    const std::string xtalkc = std::string(XTALK_XTALKC_BIN) +
                               " --scheduler serial --layout trivial ";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {xtalkc + "--omega abc " + qasm_path, "--omega"},
        {xtalkc + "--threads 99999999999 " + qasm_path, "--threads"},
        {xtalkc + "--simulate 1e3 " + qasm_path, "--simulate"},
        {std::string(XTALK_XTALKD_BIN) + " --max-concurrent x --socket " +
             ::testing::TempDir() + "xtalk_numeric_flags_" + tag + ".sock",
         "--max-concurrent"},
    };
    for (const auto& [command, flag] : cases) {
        const std::string line = command + " > /dev/null 2> " + err_path;
        const int status = std::system(line.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << line;
        EXPECT_EQ(WEXITSTATUS(status), 2) << line;
        EXPECT_NE(ReadFile(err_path).find(flag), std::string::npos)
            << line << "\n" << ReadFile(err_path);
    }
    ::unlink(qasm_path.c_str());
    ::unlink(err_path.c_str());
}

}  // namespace
}  // namespace xtalk

#endif  // XTALK_XTALKD_BIN && XTALK_XTALKC_BIN
