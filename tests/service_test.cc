/**
 * @file
 * Unit tests for the service layer: the xtalk.request.v1 /
 * xtalk.response.v1 API structs, the single-flight snapshot cache, the
 * admission gate, and the in-process Engine. The daemon end-to-end
 * protocol tests (real socket, real binaries) live in xtalkd_test.cc.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/qasm.h"
#include "device/device_io.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "service/admission.h"
#include "service/api.h"
#include "service/engine.h"
#include "service/snapshot_cache.h"
#include "telemetry/json.h"
#include "telemetry/ledger.h"
#include "telemetry/telemetry.h"

#include "compile_warm_shapes.h"

namespace xtalk::service {
namespace {

using Clock = std::chrono::steady_clock;

const char* kTinyQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[2];\n"
    "creg c[2];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "measure q[0] -> c[0];\n"
    "measure q[1] -> c[1];\n";

ServiceRequest
TinyRequest()
{
    ServiceRequest request;
    request.id = "t1";
    request.qasm = kTinyQasm;
    request.layout = "trivial";
    request.scheduler = "serial";  // No characterization needed: fast.
    return request;
}

/** A per-process temp path for a device spec named @p tag. */
std::string
TempDevicePath(const std::string& tag)
{
    return ::testing::TempDir() + "/svc_" + tag + "_device_" +
           std::to_string(static_cast<long>(::getpid())) + ".txt";
}

/**
 * Write a 4-qubit linear device spec to @p path, its first coupler at
 * @p cx_error. Its outer couplers are one hop apart, so its on-the-fly
 * snapshot is not empty, yet cheap where the 20-qubit defaults take
 * seconds.
 */
void
WriteTinyDevice(const std::string& path, double cx_error = 0.015)
{
    std::ofstream device(path);
    device << "device tiny\nqubits 4\ntraits 1 1\n";
    for (int q = 0; q < 4; ++q) {
        device << "qubit " << q
               << " t1_us 50 t2_us 40 readout_err 0.03"
                  " sq_err 0.0005 sq_ns 50 readout_ns 1000\n";
    }
    device << "edge 0 1 cx_err " << cx_error << " cx_ns 400\n"
           << "edge 1 2 cx_err 0.02 cx_ns 450\n"
           << "edge 2 3 cx_err 0.017 cx_ns 420\n";
}

/** TinyRequest on the device file at @p path, with a scheduler that
 *  characterizes on the fly. */
ServiceRequest
CharacterizingRequest(const std::string& path)
{
    ServiceRequest request = TinyRequest();
    request.device_file = path;
    request.scheduler = "greedy";
    return request;
}

// ---------------------------------------------------------------------
// ServiceRequest validation

TEST(ServiceRequestTest, DefaultCompileRequestValidates)
{
    ServiceRequest request = TinyRequest();
    std::string error;
    EXPECT_TRUE(request.Validate(&error)) << error;
}

TEST(ServiceRequestTest, ValidateRejectsMalformedRequests)
{
    const auto expect_invalid = [](void (*mutate)(ServiceRequest*),
                                   const char* what) {
        ServiceRequest request;
        request.qasm = kTinyQasm;
        mutate(&request);
        std::string error;
        EXPECT_FALSE(request.Validate(&error)) << what;
        EXPECT_FALSE(error.empty()) << what;
    };
    expect_invalid([](ServiceRequest* r) { r->kind = "transmogrify"; },
                   "unknown kind");
    expect_invalid([](ServiceRequest* r) { r->qasm.clear(); },
                   "empty qasm");
    expect_invalid([](ServiceRequest* r) { r->scheduler = "magic"; },
                   "unknown scheduler");
    expect_invalid([](ServiceRequest* r) { r->layout = "random"; },
                   "unknown layout");
    expect_invalid([](ServiceRequest* r) { r->omega = 1.5; },
                   "omega out of range");
    expect_invalid([](ServiceRequest* r) { r->omega = -0.1; },
                   "negative omega");
    expect_invalid(
        [](ServiceRequest* r) {
            r->characterization_text = "x";
            r->characterization_path = "y";
        },
        "both characterization sources");
    expect_invalid([](ServiceRequest* r) { r->simulate_shots = -1; },
                   "negative shots");
    expect_invalid([](ServiceRequest* r) { r->deadline_ms = -5; },
                   "negative deadline");
}

TEST(ServiceRequestTest, PingNeedsNoQasm)
{
    ServiceRequest request;
    request.kind = "ping";
    std::string error;
    EXPECT_TRUE(request.Validate(&error)) << error;
}

// ---------------------------------------------------------------------
// Wire round-trips

TEST(ServiceRequestTest, JsonRoundTripPreservesEveryField)
{
    ServiceRequest request;
    request.id = "req-42";
    request.kind = "compile";
    request.qasm = kTinyQasm;
    request.device = "johannesburg";
    request.device_file = "";
    request.layout = "trivial";
    request.scheduler = "greedy";
    request.omega = 0.25;
    request.passes = {"layout.trivial", "schedule.serial"};
    request.verify_passes = true;
    request.characterization_text = "independent:\n";
    request.simulate_shots = 128;
    request.want_report = true;
    request.deadline_ms = 1500;

    ServiceRequest parsed;
    std::string error;
    ASSERT_TRUE(ServiceRequest::FromJson(request.ToJson(), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.id, request.id);
    EXPECT_EQ(parsed.kind, request.kind);
    EXPECT_EQ(parsed.qasm, request.qasm);
    EXPECT_EQ(parsed.device, request.device);
    EXPECT_EQ(parsed.layout, request.layout);
    EXPECT_EQ(parsed.scheduler, request.scheduler);
    EXPECT_DOUBLE_EQ(parsed.omega, request.omega);
    EXPECT_EQ(parsed.passes, request.passes);
    EXPECT_EQ(parsed.verify_passes, request.verify_passes);
    EXPECT_EQ(parsed.characterization_text,
              request.characterization_text);
    EXPECT_EQ(parsed.simulate_shots, request.simulate_shots);
    EXPECT_EQ(parsed.want_report, request.want_report);
    EXPECT_EQ(parsed.deadline_ms, request.deadline_ms);
    // The round-trip must also agree on the ledger config hash.
    EXPECT_EQ(parsed.ConfigHash(), request.ConfigHash());
}

TEST(ServiceRequestTest, FromJsonRejectsWrongSchemaAndBadTypes)
{
    ServiceRequest parsed;
    std::string error;
    EXPECT_FALSE(ServiceRequest::FromJson("{\"id\":\"x\"}", &parsed,
                                          &error));
    EXPECT_FALSE(ServiceRequest::FromJson(
        "{\"schema\":\"xtalk.request.v2\",\"id\":\"x\"}", &parsed,
        &error));
    EXPECT_FALSE(ServiceRequest::FromJson("not json", &parsed, &error));
    EXPECT_FALSE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"omega\":\"high\"}",
        &parsed, &error));
}

TEST(ServiceRequestTest, FromJsonRejectsIntFieldsOutsideIntRange)
{
    // Regression: casting an out-of-int-range double to int is UB and
    // these doubles arrive straight off the wire.
    ServiceRequest parsed;
    std::string error;
    EXPECT_FALSE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"simulate_shots\":1e18}",
        &parsed, &error));
    EXPECT_NE(error.find("simulate_shots"), std::string::npos) << error;
    EXPECT_FALSE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"deadline_ms\":-1e18}",
        &parsed, &error));
    EXPECT_FALSE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"simulate_shots\":1.5}",
        &parsed, &error));
    // Boundary values still parse.
    ASSERT_TRUE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"simulate_shots\":2147483647}",
        &parsed, &error))
        << error;
    EXPECT_EQ(parsed.simulate_shots, 2147483647);
}

TEST(ServiceRequestTest, FromJsonSurvivesOverflowingNumbers)
{
    // Regression: 1e400 is valid JSON; std::stod in the parser threw
    // std::out_of_range, which escaped the daemon's connection thread
    // and std::terminate'd the whole service. The parse must not throw;
    // the saturated value then fails the int range check gracefully.
    ServiceRequest parsed;
    std::string error;
    EXPECT_FALSE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"simulate_shots\":1e400}",
        &parsed, &error));
    EXPECT_FALSE(error.empty());
    // Underflow (1e-400) parses as ~0; omega accepts it.
    ASSERT_TRUE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"omega\":1e-400}",
        &parsed, &error))
        << error;
    EXPECT_GE(parsed.omega, 0.0);
    EXPECT_LT(parsed.omega, 1e-300);
}

TEST(ServiceRequestTest, FromJsonIgnoresUnknownFieldsAndKeepsDefaults)
{
    ServiceRequest parsed;
    std::string error;
    ASSERT_TRUE(ServiceRequest::FromJson(
        std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"id\":\"fw\",\"future_knob\":true}",
        &parsed, &error))
        << error;
    EXPECT_EQ(parsed.id, "fw");
    EXPECT_EQ(parsed.device, "poughkeepsie");
    EXPECT_EQ(parsed.scheduler, "xtalk");
    EXPECT_DOUBLE_EQ(parsed.omega, 0.5);
}

TEST(ServiceRequestTest, SchedulersFieldRoundTripsAndValidates)
{
    ServiceRequest request;
    request.kind = "compile";
    request.qasm = "OPENQASM 2.0;\n";
    request.scheduler = "portfolio";
    request.schedulers = {"anneal", "greedy", "serial"};
    std::string error;
    EXPECT_TRUE(request.Validate(&error)) << error;

    ServiceRequest parsed;
    ASSERT_TRUE(
        ServiceRequest::FromJson(request.ToJson(), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.schedulers, request.schedulers);
    EXPECT_EQ(parsed.scheduler, "portfolio");

    // Member keys must come from the portfolio registry...
    request.schedulers = {"anneal", "no-such-member"};
    EXPECT_FALSE(request.Validate(&error));
    EXPECT_NE(error.find("no-such-member"), std::string::npos);
    // ...and an explicit list only makes sense for the portfolio policy.
    request.schedulers = {"anneal"};
    request.scheduler = "xtalk";
    EXPECT_FALSE(request.Validate(&error));
    EXPECT_NE(error.find("portfolio"), std::string::npos);

    // The member list shapes the schedule, so it must shape the hash.
    ServiceRequest a, b;
    a.qasm = b.qasm = "OPENQASM 2.0;\n";
    a.scheduler = b.scheduler = "portfolio";
    a.schedulers = {"serial", "parallel"};
    b.schedulers = {"parallel", "serial"};
    EXPECT_NE(a.ConfigHash(), b.ConfigHash());
}

TEST(ServiceRequestTest, PolynomialOnlyPortfolioSkipsCharacterization)
{
    ServiceRequest request;
    request.scheduler = "portfolio";
    EXPECT_TRUE(request.NeedsCharacterization());  // default list
    request.schedulers = {"serial", "parallel"};
    request.layout = "trivial";
    EXPECT_FALSE(request.NeedsCharacterization());
    request.schedulers = {"serial", "anneal"};
    EXPECT_TRUE(request.NeedsCharacterization());
}

TEST(ServiceRequestTest, NeedsCharacterizationForEveryPolicyAndPipeline)
{
    // Whether racing each policy consumes measured crosstalk data: only
    // the two calibration-only schedulers do without it, and the
    // default portfolio list includes xtalk.
    const std::vector<std::pair<std::string, bool>> policies = {
        {"serial", false}, {"parallel", false}, {"greedy", true},
        {"anneal", true},  {"xtalk", true},     {"auto", true},
        {"portfolio", true}};
    // Explicit member lists for the portfolio policy.
    const std::vector<std::pair<std::vector<std::string>, bool>> lists = {
        {{"serial"}, false},          {{"parallel", "serial"}, false},
        {{"serial", "greedy"}, true}, {{"anneal"}, true},
        {{"parallel", "xtalk"}, true}, {{"auto", "serial"}, true}};
    for (const std::string layout : {"trivial", "noise-aware"}) {
        const bool placed = layout == "noise-aware";
        for (const auto& [scheduler, needs] : policies) {
            ServiceRequest request;
            request.layout = layout;
            request.scheduler = scheduler;
            const std::string where = layout + " " + scheduler;
            EXPECT_EQ(request.NeedsCharacterization(), placed || needs)
                << where << " default pipeline";
            request.passes = {"schedule"};
            EXPECT_EQ(request.NeedsCharacterization(), needs) << where;
            request.passes = {"layout", "route"};
            EXPECT_EQ(request.NeedsCharacterization(), placed) << where;
            // A forced pass ignores the request's own policy.
            for (const auto& [forced, forced_needs] : policies) {
                request.passes = {"schedule:" + forced};
                EXPECT_EQ(request.NeedsCharacterization(), forced_needs)
                    << where << " schedule:" << forced;
            }
        }
        for (const auto& [schedulers, needs] : lists) {
            ServiceRequest request;
            request.layout = layout;
            request.scheduler = "portfolio";
            request.schedulers = schedulers;
            const std::string where =
                layout + " portfolio of " + schedulers.front();
            EXPECT_EQ(request.NeedsCharacterization(), placed || needs)
                << where << " default pipeline";
            request.passes = {"schedule"};
            EXPECT_EQ(request.NeedsCharacterization(), needs) << where;
            request.passes = {"schedule:portfolio"};
            EXPECT_EQ(request.NeedsCharacterization(), needs) << where;
        }
    }
    // Forced layouts ignore the request's layout.
    ServiceRequest request;
    request.scheduler = "serial";
    request.passes = {"layout:noise-aware"};
    EXPECT_TRUE(request.NeedsCharacterization());
    request.layout = "trivial";
    EXPECT_TRUE(request.NeedsCharacterization());
    request.passes = {"layout:trivial", "route", "schedule"};
    request.layout = "noise-aware";
    EXPECT_FALSE(request.NeedsCharacterization());
}

TEST(ServiceResponseTest, JsonRoundTripPreservesEveryField)
{
    ServiceResponse response;
    response.id = "req-42";
    response.code = StatusCode::kTimeout;
    response.error = "deadline expired before compilation";
    response.qasm = "OPENQASM 2.0;\n";
    response.report = "schedule:\n";
    response.counts = "00: 10\n";
    response.scheduler_name = "XtalkSched";
    response.degradation = "greedy";
    response.degradation_reason = "solver budget exhausted";
    response.omega = 0.75;
    response.duration_ns = 1234.5;
    response.success_probability = 0.91;
    response.crosstalk_overlaps = 2;
    response.has_estimate = true;
    response.initial_layout = {3, 1, 2};
    response.final_layout = {1, 3, 2};
    response.diagnostics = {"layout: trivial", "routed: 2 swaps"};
    response.characterization_id = "c0ffee12";
    response.cache_hit = true;
    response.queue_ms = 0.5;
    response.run_ms = 31.25;
    ServicePortfolioOutcome won;
    won.member = "greedy";
    won.scheduler = "GreedySched";
    won.status = "won";
    won.score = 0.91;
    won.has_score = true;
    won.wall_ms = 2.5;
    ServicePortfolioOutcome failed;
    failed.member = "xtalk";
    failed.scheduler = "XtalkSched";
    failed.status = "failed";
    failed.reason = "injected fault at smt.solve";
    response.portfolio = {failed, won};

    ServiceResponse parsed;
    std::string error;
    ASSERT_TRUE(
        ServiceResponse::FromJson(response.ToJson(), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.id, response.id);
    EXPECT_EQ(parsed.code, response.code);
    EXPECT_EQ(parsed.error, response.error);
    EXPECT_EQ(parsed.qasm, response.qasm);
    EXPECT_EQ(parsed.report, response.report);
    EXPECT_EQ(parsed.counts, response.counts);
    EXPECT_EQ(parsed.scheduler_name, response.scheduler_name);
    EXPECT_EQ(parsed.degradation, response.degradation);
    EXPECT_EQ(parsed.degradation_reason, response.degradation_reason);
    ASSERT_TRUE(parsed.omega.has_value());
    EXPECT_DOUBLE_EQ(*parsed.omega, *response.omega);
    EXPECT_DOUBLE_EQ(parsed.duration_ns, response.duration_ns);
    EXPECT_DOUBLE_EQ(parsed.success_probability,
                     response.success_probability);
    EXPECT_EQ(parsed.crosstalk_overlaps, response.crosstalk_overlaps);
    EXPECT_EQ(parsed.has_estimate, response.has_estimate);
    EXPECT_EQ(parsed.initial_layout, response.initial_layout);
    EXPECT_EQ(parsed.final_layout, response.final_layout);
    EXPECT_EQ(parsed.diagnostics, response.diagnostics);
    EXPECT_EQ(parsed.characterization_id, response.characterization_id);
    EXPECT_EQ(parsed.cache_hit, response.cache_hit);
    EXPECT_DOUBLE_EQ(parsed.queue_ms, response.queue_ms);
    EXPECT_DOUBLE_EQ(parsed.run_ms, response.run_ms);
    ASSERT_EQ(parsed.portfolio.size(), 2u);
    EXPECT_EQ(parsed.portfolio[0].member, "xtalk");
    EXPECT_EQ(parsed.portfolio[0].status, "failed");
    EXPECT_FALSE(parsed.portfolio[0].has_score);
    EXPECT_EQ(parsed.portfolio[0].reason, failed.reason);
    EXPECT_EQ(parsed.portfolio[1].member, "greedy");
    EXPECT_EQ(parsed.portfolio[1].scheduler, "GreedySched");
    EXPECT_EQ(parsed.portfolio[1].status, "won");
    ASSERT_TRUE(parsed.portfolio[1].has_score);
    EXPECT_DOUBLE_EQ(parsed.portfolio[1].score, won.score);
    EXPECT_DOUBLE_EQ(parsed.portfolio[1].wall_ms, won.wall_ms);
}

TEST(ServiceResponseTest, FromJsonRejectsLayoutEntriesThatAreNotInts)
{
    // Regression: each array element is a wire double; casting one
    // outside int's range to int is undefined behaviour.
    for (const std::string field : {"initial_layout", "final_layout"}) {
        for (const std::string items : {"[1e400]", "[2.5]", "[0,-3e9]"}) {
            const std::string line = std::string("{\"schema\":\"") +
                                     kResponseSchema + "\",\"" + field +
                                     "\":" + items + "}";
            ServiceResponse parsed;
            std::string error;
            EXPECT_FALSE(ServiceResponse::FromJson(line, &parsed, &error))
                << line;
            EXPECT_NE(error.find(field), std::string::npos) << error;
        }
    }
    ServiceResponse parsed;
    std::string error;
    ASSERT_TRUE(ServiceResponse::FromJson(
        std::string("{\"schema\":\"") + kResponseSchema +
            "\",\"initial_layout\":[2147483647,-2147483648,0]}",
        &parsed, &error))
        << error;
    EXPECT_EQ(parsed.initial_layout,
              (std::vector<int>{2147483647, -2147483647 - 1, 0}));
}

TEST(ServiceResponseTest, TimingIsTheOnlyNondeterministicField)
{
    ServiceResponse a;
    a.id = "x";
    a.run_ms = 10.0;
    ServiceResponse b = a;
    b.run_ms = 99.0;
    b.queue_ms = 5.0;
    // Per-member wall clocks are timing too: they must vanish from the
    // deterministic projection along with the `timing` object.
    ServicePortfolioOutcome outcome;
    outcome.member = "serial";
    outcome.scheduler = "SerialSched";
    outcome.status = "won";
    a.portfolio = {outcome};
    outcome.wall_ms = 123.0;
    b.portfolio = {outcome};
    // Wall-clock differences disappear in the deterministic projection.
    EXPECT_NE(a.ToJson(true), b.ToJson(true));
    EXPECT_EQ(a.ToJson(false), b.ToJson(false));
    EXPECT_EQ(a.ToJson(false).find("timing"), std::string::npos);
    EXPECT_EQ(a.ToJson(false).find("wall_ms"), std::string::npos);
}

// ---------------------------------------------------------------------
// Wire bytes, pinned: a codec change that is meant to keep the protocol
// must pass these unedited.

/** A request with every field set, escapes and non-ASCII included. */
ServiceRequest
EveryFieldRequest()
{
    ServiceRequest request;
    request.id = "req \"7\"\t\xc3\xa9\xe2\x82\xac";
    request.qasm = kTinyQasm;
    request.device = "poughkeepsie";
    request.device_file = "/tmp/dev\\ice.txt";
    request.layout = "noise-aware";
    request.scheduler = "portfolio";
    request.schedulers = {"xtalk", "greedy", "parallel"};
    request.omega = 0.123456789012345;
    request.passes = {"layout", "route", "schedule:xtalk", "lower"};
    request.verify_passes = true;
    request.characterization_text = "pair 0 1 2 3\t0.031\x01\n";
    request.characterization_path = "charz.xtalk.txt";
    request.save_characterization_path = "out/\x7f.txt";
    request.simulate_shots = 8192;
    request.want_report = true;
    request.deadline_ms = 2500;
    request.trace_id = "0af7651916cd43dd8448eb211c80319c";
    request.span_id = 0xb7ad6b7169203331ull;
    return request;
}

/** What daemon_parallel sends: a seed-1 compile_warm shape, the
 *  parallel scheduler and the trivial layout. */
ServiceRequest
DaemonShapedRequest()
{
    ServiceRequest request;
    request.id = "daemon_parallel-4";
    request.qasm =
        ToQasm(test_shapes::CompileWarmShapes(MakePoughkeepsie(), 1)[4]);
    request.scheduler = "parallel";
    request.layout = "trivial";
    return request;
}

/** The engine's answer to DaemonShapedRequest() with its wall-clock
 *  fields and service-minted trace id set by hand. */
ServiceResponse
DaemonShapedResponse()
{
    Engine engine;
    ServiceResponse response = engine.Handle(DaemonShapedRequest());
    response.queue_ms = 0.0123456789;
    response.run_ms = 0.187654321;
    for (size_t k = 0; k < response.phases.size(); ++k) {
        response.phases[k].ms = 0.001234567 * static_cast<double>(k + 1);
    }
    for (ServicePortfolioOutcome& outcome : response.portfolio) {
        outcome.wall_ms = 0.045752;
    }
    response.trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
    return response;
}

TEST(WireBytesTest, PinnedRequestLine)
{
    const std::string line = EveryFieldRequest().ToJson();
    EXPECT_EQ(telemetry::FnvHex(line), "270cb1c91c828215") << line;
}

TEST(WireBytesTest, PinnedEveryFieldResponseLine)
{
    ServiceResponse response;
    response.id = "req \"7\"\t\xc3\xa9";
    response.code = StatusCode::kTimeout;
    response.error = "line 3: \\ bad \x1f";
    response.qasm = kTinyQasm;
    response.report = "schedule:\n  h q[0] @ 0.0ns\n";
    response.counts = "00: 1000\n11: 1048\n";
    response.scheduler_name = "GreedySched";
    response.degradation = "greedy";
    response.degradation_reason = "solver budget exhausted";
    response.omega = 0.5;
    response.duration_ns = 1234.5678901234;
    response.success_probability = 0.893900815123;
    response.crosstalk_overlaps = 2;
    response.has_estimate = true;
    response.initial_layout = {3, 1, 2};
    response.final_layout = {1, 3, 2};
    response.diagnostics = {"layout: trivial", "routed: 2 swaps"};
    response.characterization_id = "edda9edbc7368073";
    response.cache_hit = true;
    response.queue_ms = 1e-7;
    response.run_ms = 31.25;
    response.diag = {{"inflight", 0.0}, {"queued", 3.0}};
    response.stats_json = R"({"counters":{"svc.requests":12}})";
    response.trace_id = "0af7651916cd43dd8448eb211c80319c";
    response.trace_client_supplied = true;
    ServicePortfolioOutcome won;
    won.member = "greedy";
    won.scheduler = "GreedySched";
    won.status = "won";
    won.score = 0.91;
    won.has_score = true;
    won.wall_ms = 2.5e-5;
    ServicePortfolioOutcome failed;
    failed.member = "xtalk";
    failed.scheduler = "XtalkSched";
    failed.status = "failed";
    failed.reason = "injected fault at smt.solve";
    response.portfolio = {failed, won};
    response.phases = {{"queue", 0.25, 10.0}, {"parse", 1.0 / 3.0, {}}};
    const std::string line = response.ToJson(true);
    EXPECT_EQ(telemetry::FnvHex(line), "0a01f2a32b720d90") << line;
}

TEST(WireBytesTest, PinnedDaemonShapedResponseLine)
{
    const ServiceResponse response = DaemonShapedResponse();
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    ASSERT_FALSE(response.phases.empty());
    const std::string line = response.ToJson(true);
    EXPECT_EQ(telemetry::FnvHex(line), "3f9aa4bf2e511251") << line;
}

/**
 * One seeded mutant of @p line: a truncation, a byte flip, an inserted
 * control character, an inserted \u escape, or an inserted surrogate
 * (a pair, a lone half, or a high half before a non-low escape).
 */
std::string
Mutate(const std::string& line, Rng& rng)
{
    std::string m = line;
    const size_t at = static_cast<size_t>(rng.UniformInt(m.size() + 1));
    char escape[16];
    switch (rng.UniformInt(5)) {
      case 0:
        m.resize(at);
        break;
      case 1:
        m[std::min(at, m.size() - 1)] =
            static_cast<char>(rng.UniformInt(256));
        break;
      case 2:
        m.insert(at, 1, static_cast<char>(rng.UniformInt(0x20)));
        break;
      case 3:
        std::snprintf(escape, sizeof(escape), "\\u%04X",
                      static_cast<unsigned>(rng.UniformInt(0x10000)));
        m.insert(at, escape);
        break;
      default: {
        const unsigned high = 0xD800 + static_cast<unsigned>(
                                           rng.UniformInt(0x400));
        const unsigned low = 0xDC00 + static_cast<unsigned>(
                                          rng.UniformInt(0x400));
        switch (rng.UniformInt(4)) {
          case 0:
            std::snprintf(escape, sizeof(escape), "\\u%04x\\u%04x", high,
                          low);
            break;
          case 1:
            std::snprintf(escape, sizeof(escape), "\\u%04x", high);
            break;
          case 2:
            std::snprintf(escape, sizeof(escape), "\\u%04x", low);
            break;
          default:
            std::snprintf(escape, sizeof(escape), "\\u%04x\\u0041", high);
            break;
        }
        m.insert(at, escape);
        break;
      }
    }
    return m;
}

TEST(WireBytesTest, PinnedVerdictsOnAMutationCorpus)
{
    // Each mutant's verdict, and either its error message (parse errors
    // name the byte) or the fields it parsed to, re-encoded, all folded
    // into one hash per line kind.
    Rng rng(2029);
    const std::string request_line = DaemonShapedRequest().ToJson();
    const std::string response_line = DaemonShapedResponse().ToJson(true);
    std::string request_log;
    std::string response_log;
    int accepted = 0;
    int rejected = 0;
    for (int k = 0; k < 600; ++k) {
        std::string error;
        const std::string req = Mutate(request_line, rng);
        ServiceRequest parsed_request;
        if (ServiceRequest::FromJson(req, &parsed_request, &error)) {
            ++accepted;
            request_log += "A" + parsed_request.ToJson() + "\n";
        } else {
            ++rejected;
            request_log += "R" + error + "\n";
        }
        const std::string resp = Mutate(response_line, rng);
        ServiceResponse parsed_response;
        if (ServiceResponse::FromJson(resp, &parsed_response, &error)) {
            ++accepted;
            response_log += "A" + parsed_response.ToJson(true) + "\n";
        } else {
            ++rejected;
            response_log += "R" + error + "\n";
        }
    }
    EXPECT_GT(accepted, 100);
    EXPECT_GT(rejected, 100);
    EXPECT_NE(request_log.find(" at byte "), std::string::npos);
    EXPECT_EQ(telemetry::FnvHex(request_log), "e95aa60e7c3a9fd5")
        << accepted << " accepted, " << rejected << " rejected";
    EXPECT_EQ(telemetry::FnvHex(response_log), "ae0152dcf1d5e386");
}

// ---------------------------------------------------------------------
// Snapshot cache

TEST(SnapshotCacheTest, SecondLookupHits)
{
    SnapshotCache cache(0);  // 0 = unbounded.
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        CrosstalkCharacterization data;
        data.SetIndependentError(EdgeId{0}, 0.01);
        return data;
    };
    const SnapshotCache::Entry first = cache.GetOrCompute("k", compute);
    EXPECT_FALSE(first.hit);
    const SnapshotCache::Entry second = cache.GetOrCompute("k", compute);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(second.data.get(), first.data.get());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SnapshotCacheTest, ConcurrentCallersSingleFlight)
{
    SnapshotCache cache(0);
    std::atomic<int> computed{0};
    const auto compute = [&] {
        computed.fetch_add(1);
        // Long enough that every thread arrives while in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return CrosstalkCharacterization{};
    };
    constexpr int kThreads = 8;
    std::atomic<int> hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            if (cache.GetOrCompute("shared", compute).hit) {
                hits.fetch_add(1);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(hits.load(), kThreads - 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
}

TEST(SnapshotCacheTest, FailedFlightPropagatesAndRetries)
{
    SnapshotCache cache(0);
    int calls = 0;
    EXPECT_THROW(cache.GetOrCompute("k",
                                    [&]() -> CrosstalkCharacterization {
                                        ++calls;
                                        throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
    // The failure is not cached: the next request retries the compute.
    const SnapshotCache::Entry entry = cache.GetOrCompute("k", [&] {
        ++calls;
        return CrosstalkCharacterization{};
    });
    EXPECT_FALSE(entry.hit);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SnapshotCacheTest, DistinctKeysComputeSeparately)
{
    SnapshotCache cache(0);
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return CrosstalkCharacterization{};
    };
    cache.GetOrCompute("a", compute);
    cache.GetOrCompute("b", compute);
    EXPECT_EQ(computed, 2);
    cache.Clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.GetOrCompute("a", compute);
    EXPECT_EQ(computed, 3);
}

TEST(SnapshotCacheTest, LruBoundEvictsOldestAndCounts)
{
    SnapshotCache cache(2);
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return CrosstalkCharacterization{};
    };
    cache.GetOrCompute("a", compute);
    cache.GetOrCompute("b", compute);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);
    // Touch "a" so "b" becomes least recently used.
    cache.GetOrCompute("a", compute);
    cache.GetOrCompute("c", compute);  // Evicts "b".
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(computed, 3);
    EXPECT_TRUE(cache.GetOrCompute("a", compute).hit);
    EXPECT_TRUE(cache.GetOrCompute("c", compute).hit);
    // "b" was evicted: recomputed on next request.
    EXPECT_FALSE(cache.GetOrCompute("b", compute).hit);
    EXPECT_EQ(computed, 4);
}

TEST(SnapshotCacheTest, KeyChurnStaysBounded)
{
    SnapshotCache cache(4);
    for (int i = 0; i < 100; ++i) {
        cache.GetOrCompute("key-" + std::to_string(i),
                           [] { return CrosstalkCharacterization{}; });
    }
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.evictions(), 96u);
}

TEST(SnapshotCacheTest, ZeroMaxEntriesIsUnbounded)
{
    SnapshotCache cache(0);
    for (int i = 0; i < 100; ++i) {
        cache.GetOrCompute("key-" + std::to_string(i),
                           [] { return CrosstalkCharacterization{}; });
    }
    EXPECT_EQ(cache.size(), 100u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(SnapshotCacheTest, CacheFillFaultFailsFlightThenRetries)
{
    faults::ScopedFaultPlan plan("cache.fill:n=1;seed=3");
    SnapshotCache cache(0);
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return CrosstalkCharacterization{};
    };
    // First flight dies at the fault site before the measurement runs.
    EXPECT_THROW(cache.GetOrCompute("k", compute), faults::InjectedFault);
    EXPECT_EQ(computed, 0);
    EXPECT_EQ(cache.size(), 0u);
    // The failure was not cached; the retry computes and succeeds.
    const SnapshotCache::Entry entry = cache.GetOrCompute("k", compute);
    EXPECT_FALSE(entry.hit);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SnapshotCacheTest, EntryCarriesTheSnapshotIdOnMissAndHits)
{
    SnapshotCache cache(0);
    const auto compute = [] {
        CrosstalkCharacterization data;
        data.SetIndependentError(EdgeId{0}, 0.01);
        data.SetIndependentError(EdgeId{1}, 0.02);
        data.SetConditionalError(EdgeId{0}, EdgeId{1}, 0.07);
        return data;
    };
    const SnapshotCache::Entry miss = cache.GetOrCompute("k", compute);
    ASSERT_FALSE(miss.hit);
    EXPECT_EQ(miss.id, miss.data->SnapshotId());
    for (int i = 0; i < 2; ++i) {
        const SnapshotCache::Entry hit = cache.GetOrCompute("k", compute);
        ASSERT_TRUE(hit.hit);
        EXPECT_EQ(hit.id, hit.data->SnapshotId());
        EXPECT_EQ(hit.id, miss.id);
    }
}

TEST(EngineTest, CacheFillFaultAnswersStructuredErrorThenHeals)
{
    faults::ScopedFaultPlan plan("cache.fill:n=1;seed=3");
    const std::string device_path = TempDevicePath("cache_fill");
    WriteTinyDevice(device_path);
    Engine engine;
    ServiceRequest request = CharacterizingRequest(device_path);
    request.id = "cache-fill-fault";
    // The injected Error surfaces as a structured response, never an
    // exception or a silent wrong answer.
    const ServiceResponse faulted = engine.Handle(request);
    EXPECT_EQ(faulted.code, StatusCode::kError);
    EXPECT_FALSE(faulted.error.empty());
    // The fault is spent (n=1); the identical request now succeeds —
    // the failed flight was not cached.
    const ServiceResponse healed = engine.Handle(request);
    EXPECT_EQ(healed.code, StatusCode::kOk) << healed.error;
    EXPECT_FALSE(healed.cache_hit);
    std::remove(device_path.c_str());
}

TEST(EngineTest, WarmHitReportsTheFillsSnapshotId)
{
    const std::string device_path = TempDevicePath("warm_hit");
    WriteTinyDevice(device_path);
    Engine engine;
    const ServiceRequest request = CharacterizingRequest(device_path);
    const ServiceResponse fill = engine.Handle(request);
    ASSERT_EQ(fill.code, StatusCode::kOk) << fill.error;
    EXPECT_FALSE(fill.cache_hit);
    EXPECT_FALSE(fill.characterization_id.empty());
    const ServiceResponse hit = engine.Handle(request);
    ASSERT_EQ(hit.code, StatusCode::kOk) << hit.error;
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.characterization_id, fill.characterization_id);
    std::remove(device_path.c_str());
}

TEST(EngineTest, RewrittenDeviceFileIsANewSnapshot)
{
    // A device file is keyed by its content, not its path: the same
    // path rewritten between two requests is measured again.
    const std::string device_path = TempDevicePath("rewritten");
    WriteTinyDevice(device_path, 0.015);
    Engine engine;
    const ServiceRequest request = CharacterizingRequest(device_path);
    const ServiceResponse before = engine.Handle(request);
    ASSERT_EQ(before.code, StatusCode::kOk) << before.error;
    WriteTinyDevice(device_path, 0.03);
    const ServiceResponse after = engine.Handle(request);
    ASSERT_EQ(after.code, StatusCode::kOk) << after.error;
    EXPECT_FALSE(after.cache_hit);
    EXPECT_NE(after.characterization_id, before.characterization_id);
    EXPECT_EQ(engine.cache().misses(), 2u);
    std::remove(device_path.c_str());
}

// ---------------------------------------------------------------------
// Admission gate

TEST(AdmissionGateTest, AdmitsUpToCapacityThenRejects)
{
    AdmissionGate gate(AdmissionOptions{1, 0});
    EXPECT_EQ(gate.Enter(), Admission::kAdmitted);
    // Slot held and no queue: the next request is rejected immediately.
    EXPECT_EQ(gate.Enter(), Admission::kRejected);
    gate.Leave();
    EXPECT_EQ(gate.Enter(), Admission::kAdmitted);
    gate.Leave();
    EXPECT_EQ(gate.admitted(), 2u);
    EXPECT_EQ(gate.rejected(), 1u);
}

TEST(AdmissionGateTest, ZeroConcurrencyRejectsEverything)
{
    AdmissionGate gate(AdmissionOptions{0, 0});
    EXPECT_EQ(gate.Enter(), Admission::kRejected);
    EXPECT_EQ(gate.rejected(), 1u);
}

TEST(AdmissionGateTest, QueuedRequestTimesOutAtDeadline)
{
    AdmissionGate gate(AdmissionOptions{1, 4});
    ASSERT_EQ(gate.Enter(), Admission::kAdmitted);
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(50);
    EXPECT_EQ(gate.Enter(deadline), Admission::kTimedOut);
    EXPECT_EQ(gate.timed_out(), 1u);
    gate.Leave();
}

TEST(AdmissionGateTest, QueuedRequestAdmittedWhenSlotFrees)
{
    AdmissionGate gate(AdmissionOptions{1, 4});
    ASSERT_EQ(gate.Enter(), Admission::kAdmitted);
    std::atomic<bool> admitted{false};
    std::thread waiter([&] {
        if (gate.Enter() == Admission::kAdmitted) {
            admitted.store(true);
            gate.Leave();
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(admitted.load());  // Still queued behind the holder.
    gate.Leave();
    waiter.join();
    EXPECT_TRUE(admitted.load());
    EXPECT_EQ(gate.admitted(), 2u);
}

TEST(AdmissionGateTest, CloseWakesDeadlineFreeWaiterWithRejection)
{
    // Regression: a deadline-free Enter() on a saturated gate used to
    // wait for a slot forever; with max_concurrent == 0 no slot ever
    // frees and shutdown drain hung. Close() must wake it.
    AdmissionGate gate(AdmissionOptions{0, 4});
    std::atomic<bool> released{false};
    Admission outcome = Admission::kAdmitted;
    std::thread waiter([&] {
        outcome = gate.Enter();  // No deadline: blocks until Close().
        released.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(released.load());
    gate.Close();
    waiter.join();
    EXPECT_TRUE(released.load());
    EXPECT_EQ(outcome, Admission::kRejected);
    // A closed gate rejects everything from then on.
    EXPECT_EQ(gate.Enter(), Admission::kRejected);
}

TEST(AdmissionGateTest, CloseRejectsWaiterEvenWithSlotsConfigured)
{
    AdmissionGate gate(AdmissionOptions{1, 4});
    ASSERT_EQ(gate.Enter(), Admission::kAdmitted);
    Admission outcome = Admission::kAdmitted;
    std::thread waiter([&] { outcome = gate.Enter(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Close();
    waiter.join();
    EXPECT_EQ(outcome, Admission::kRejected);
    gate.Leave();
}

// ---------------------------------------------------------------------
// Engine

TEST(EngineTest, PingReturnsOk)
{
    Engine engine;
    ServiceRequest request;
    request.id = "p";
    request.kind = "ping";
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kOk);
    EXPECT_EQ(response.id, "p");
}

TEST(EngineTest, InvalidRequestAnsweredNotThrown)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.scheduler = "magic";
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError);
    EXPECT_NE(response.error.find("magic"), std::string::npos);
}

TEST(EngineTest, BadQasmClassifiedAsError)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.qasm = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError);
    EXPECT_FALSE(response.error.empty());
}

TEST(EngineTest, OverflowingQasmIndexAnswersError)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.qasm = "OPENQASM 2.0;\nqreg q[2];\nh q[99999999999];\n";
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError) << response.error;
    EXPECT_NE(response.error.find("line 3"), std::string::npos)
        << response.error;
}

TEST(EngineTest, WholeRegisterMeasureNeedsAMatchingCreg)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.qasm =
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n"
        "measure q -> c;\n";
    EXPECT_EQ(engine.Handle(request).code, StatusCode::kOk);
    request.qasm =
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q -> c;\n";
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError) << response.error;
    EXPECT_NE(response.error.find("line 4"), std::string::npos)
        << response.error;
}

TEST(EngineTest, OverflowingQasmParameterAnswersError)
{
    Engine engine;
    for (const char* param : {"x*pi", "pi/1e999", "1e999*pi"}) {
        ServiceRequest request = TinyRequest();
        request.qasm = std::string("OPENQASM 2.0;\nqreg q[2];\nrx(") +
                       param + ") q[0];\n";
        const ServiceResponse response = engine.Handle(request);
        EXPECT_EQ(response.code, StatusCode::kError)
            << param << ": " << response.error;
        EXPECT_NE(response.error.find("bad parameter"), std::string::npos)
            << response.error;
    }
}

TEST(EngineTest, TooWideCircuitAnswersErrorBeforeCharacterizing)
{
    // xtalk needs a characterization; a 30-qubit circuit on the 20-qubit
    // device must fail before a cold engine spends seconds of SRB on it.
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.scheduler = "xtalk";
    request.layout = "noise-aware";
    request.qasm =
        "OPENQASM 2.0;\nqreg q[30];\ncreg c[1];\nh q[29];\n"
        "measure q[29] -> c[0];\n";
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError) << response.error;
    EXPECT_NE(response.error.find("needs 30 qubits"), std::string::npos)
        << response.error;
    for (const ServicePhase& phase : response.phases) {
        EXPECT_NE(phase.phase, "characterize");
    }
    EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(EngineTest, GateAfterMeasureAnswersErrorNamingTheQubit)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.qasm =
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\n"
        "x q[0];\nmeasure q[1] -> c[1];\n";
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError) << response.error;
    EXPECT_NE(response.error.find("qubit 0"), std::string::npos)
        << response.error;
}

TEST(EngineTest, SimulatingIntoClbit64AnswersError)
{
    // Counts pack a shot into 64 bits; c[64] used to alias c[0].
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.qasm =
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[65];\nx q[0];\n"
        "measure q[0] -> c[64];\nmeasure q[1] -> c[1];\n";
    request.simulate_shots = 16;
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError) << response.counts;
    EXPECT_NE(response.error.find("clbit 64"), std::string::npos)
        << response.error;
}

TEST(EngineTest, CompilesTinyCircuitSerially)
{
    Engine engine;
    const ServiceRequest request = TinyRequest();
    const ServiceResponse response = engine.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    EXPECT_EQ(response.id, "t1");
    EXPECT_EQ(response.scheduler_name, "SerialSched");
    EXPECT_TRUE(response.has_estimate);
    EXPECT_GT(response.duration_ns, 0.0);
    EXPECT_NE(response.qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_FALSE(response.cache_hit);
    EXPECT_GT(response.run_ms, 0.0);
}

TEST(EngineTest, IdenticalRequestsProduceIdenticalResponses)
{
    Engine engine;
    const ServiceRequest request = TinyRequest();
    const ServiceResponse first = engine.Handle(request);
    const ServiceResponse second = engine.Handle(request);
    ASSERT_EQ(first.code, StatusCode::kOk) << first.error;
    // Byte-identical outside the wall-clock timing object.
    EXPECT_EQ(first.ToJson(false), second.ToJson(false));
}

TEST(EngineTest, PinnedWarmCompileResponses)
{
    // The default engine's answers to the nine seed-1 compile_warm
    // shapes (xtalk at omega 0.5, noise-aware layout), all but the first
    // served warm from one characterized Poughkeepsie snapshot. Its
    // high-crosstalk entries reach the layout's crosstalk penalty. A
    // change meant to keep compile results must pass this unedited.
    Engine engine;
    const std::vector<Circuit> shapes =
        test_shapes::CompileWarmShapes(MakePoughkeepsie(), 1);
    const std::vector<std::string> pinned{
        "0cac5f4b9d13033c", "33331dd8f8889167", "21d20f99b6e72b4d",
        "1ec7694672a51ad6", "16fc5a76a2f2478c", "c6df9683f963e9d6",
        "3f5fc93066fe952a", "39287870f772b8cb", "60fe5404cc40635a",
    };
    ASSERT_EQ(shapes.size(), pinned.size());
    for (size_t k = 0; k < shapes.size(); ++k) {
        ServiceRequest request;
        request.id = "warm-" + std::to_string(k);
        request.qasm = ToQasm(shapes[k]);
        const ServiceResponse response = engine.Handle(request);
        ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
        EXPECT_EQ(response.cache_hit, k > 0) << k;
        EXPECT_EQ(telemetry::FnvHex(response.ToJson(false)), pinned[k])
            << "shape " << k << ": " << response.ToJson(false);
    }
}

TEST(EngineTest, NanAngleWithShotsAnswersError)
{
    // A NaN angle must stop at the parser: past it, the simulator loses
    // the register's trace and the request answers internal.
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.qasm = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrx(nan) q[0];\n"
                   "measure q[0] -> c[0];\n";
    request.simulate_shots = 100;
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kError) << response.error;
    EXPECT_NE(response.error.find("line 4: bad parameter 'nan'"),
              std::string::npos)
        << response.error;
}

TEST(EngineTest, ExpiredDeadlineReturnsTimeout)
{
    Engine engine;
    const ServiceRequest request = TinyRequest();
    const ServiceResponse response =
        engine.Handle(request, Clock::now() - std::chrono::seconds(1));
    EXPECT_EQ(response.code, StatusCode::kTimeout);
    EXPECT_NE(response.error.find("deadline"), std::string::npos);
}

TEST(EngineTest, ReportAndSimulationFillTheirFields)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.want_report = true;
    request.simulate_shots = 64;
    const ServiceResponse response = engine.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    EXPECT_FALSE(response.report.empty());
    EXPECT_FALSE(response.counts.empty());
}

// ---------------------------------------------------------------------
// Request tracing, budget attribution, stats

TEST(ServiceRequestTest, TraceFieldRoundTripsAndValidates)
{
    ServiceRequest request = TinyRequest();
    request.trace_id = "0123456789abcdef0123456789abcdef";
    request.span_id = 0xbeef;
    std::string error;
    EXPECT_TRUE(request.Validate(&error)) << error;

    ServiceRequest parsed;
    ASSERT_TRUE(
        ServiceRequest::FromJson(request.ToJson(), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.trace_id, request.trace_id);
    EXPECT_EQ(parsed.span_id, request.span_id);
    // The trace id never feeds the cache/ledger config hash: the same
    // compile under two traces must share one snapshot.
    ServiceRequest untraced = TinyRequest();
    EXPECT_EQ(request.ConfigHash(), untraced.ConfigHash());

    request.trace_id = "not-hex";
    EXPECT_FALSE(request.Validate(&error));
    EXPECT_NE(error.find("trace.id"), std::string::npos);
    request.trace_id = "00000000000000000000000000000000";
    EXPECT_FALSE(request.Validate(&error));
}

TEST(ServiceResponseTest, TraceOnlyDeterministicWhenClientSupplied)
{
    ServiceResponse response;
    response.id = "x";
    response.trace_id = "0123456789abcdef0123456789abcdef";
    // Service-minted ids are fresh randomness per run, so they belong
    // with timing: visible in the full projection, absent from the
    // deterministic one.
    response.trace_client_supplied = false;
    EXPECT_NE(response.ToJson(true).find("\"trace\""),
              std::string::npos);
    EXPECT_NE(response.ToJson(true).find("\"origin\":\"service\""),
              std::string::npos);
    EXPECT_EQ(response.ToJson(false).find("trace"), std::string::npos);
    // A client-supplied id is part of the request, hence deterministic.
    response.trace_client_supplied = true;
    EXPECT_NE(response.ToJson(false).find("\"trace\""),
              std::string::npos);
    EXPECT_NE(response.ToJson(false).find("\"origin\":\"client\""),
              std::string::npos);
}

TEST(ServiceResponseTest, DiagPhasesAndStatsRoundTrip)
{
    ServiceResponse response;
    response.id = "x";
    response.diag["inflight"] = 2.0;
    response.diag["queued"] = 0.0;
    response.stats_json = "{\"schema\":\"xtalk.svcstats.v1\"}";
    ServicePhase phase;
    phase.phase = "schedule";
    phase.ms = 12.5;
    phase.pct_of_deadline = 25.0;
    response.phases.push_back(phase);
    response.trace_id = "0123456789abcdef0123456789abcdef";
    response.trace_client_supplied = true;

    ServiceResponse parsed;
    std::string error;
    ASSERT_TRUE(
        ServiceResponse::FromJson(response.ToJson(), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.diag, response.diag);
    EXPECT_EQ(parsed.stats_json, response.stats_json);
    ASSERT_EQ(parsed.phases.size(), 1u);
    EXPECT_EQ(parsed.phases[0].phase, "schedule");
    EXPECT_DOUBLE_EQ(parsed.phases[0].ms, 12.5);
    ASSERT_TRUE(parsed.phases[0].pct_of_deadline.has_value());
    EXPECT_DOUBLE_EQ(*parsed.phases[0].pct_of_deadline, 25.0);
    EXPECT_EQ(parsed.trace_id, response.trace_id);
    EXPECT_TRUE(parsed.trace_client_supplied);
    // Phases are wall-clock measurements: timing-projection only.
    EXPECT_EQ(response.ToJson(false).find("phases"), std::string::npos);
}

TEST(EngineTest, PhasesPartitionRunMsExactly)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.deadline_ms = 60000;
    const ServiceResponse response = engine.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    ASSERT_FALSE(response.phases.empty());
    double sum = 0.0;
    bool saw_schedule = false;
    for (const ServicePhase& phase : response.phases) {
        EXPECT_GE(phase.ms, 0.0) << phase.phase;
        // A deadline was set, so every phase reports its budget share.
        ASSERT_TRUE(phase.pct_of_deadline.has_value()) << phase.phase;
        EXPECT_DOUBLE_EQ(*phase.pct_of_deadline,
                         phase.ms / 60000.0 * 100.0);
        sum += phase.ms;
        saw_schedule |= phase.phase == "schedule";
    }
    EXPECT_TRUE(saw_schedule);
    EXPECT_EQ(response.phases.back().phase, "other");
    // The "other" residual makes the partition exact by construction.
    EXPECT_NEAR(sum, response.run_ms, 1e-9);
}

TEST(EngineTest, PhasesOmitDeadlineShareWithoutDeadline)
{
    Engine engine;
    const ServiceResponse response = engine.Handle(TinyRequest());
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    ASSERT_FALSE(response.phases.empty());
    for (const ServicePhase& phase : response.phases) {
        EXPECT_FALSE(phase.pct_of_deadline.has_value()) << phase.phase;
    }
}

TEST(EngineTest, EchoesClientTraceAndMintsOtherwise)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.trace_id = "feedfacefeedfacefeedfacefeedface";
    ServiceResponse response = engine.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    EXPECT_EQ(response.trace_id, request.trace_id);
    EXPECT_TRUE(response.trace_client_supplied);

    // Without a client id the service mints one so the run is still
    // greppable end to end; it is marked service-origin.
    request.trace_id.clear();
    request.id = "t2";
    response = engine.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    EXPECT_EQ(response.trace_id.size(), 32u);
    EXPECT_FALSE(response.trace_client_supplied);
}

TEST(EngineTest, StatsKindReturnsServiceSnapshot)
{
    // Counters only move while telemetry is on (daemons run that way).
    telemetry::SetEnabled(true);
    Engine engine;
    // One compile first so the counters have something to report.
    const ServiceResponse compiled = engine.Handle(TinyRequest());
    ASSERT_EQ(compiled.code, StatusCode::kOk) << compiled.error;

    ServiceRequest request;
    request.id = "s";
    request.kind = "stats";
    const ServiceResponse response = engine.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    ASSERT_FALSE(response.stats_json.empty());
    telemetry::JsonValue stats;
    std::string error;
    ASSERT_TRUE(telemetry::ParseJsonValue(response.stats_json, &stats,
                                          &error))
        << error;
    EXPECT_EQ(stats.GetString("schema"), "xtalk.svcstats.v1");
    const telemetry::JsonValue* requests = stats.Find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->GetNumber("total"), 1.0);
    ASSERT_NE(stats.Find("phases"), nullptr);
    ASSERT_NE(stats.Find("cache"), nullptr);
    ASSERT_NE(stats.Find("journal"), nullptr);
    // The engine owns the admission gate, so every snapshot reports it.
    const telemetry::JsonValue* admission = stats.Find("admission");
    ASSERT_NE(admission, nullptr);
    EXPECT_EQ(admission->GetNumber("admitted"), 1.0);
    telemetry::SetEnabled(false);
}

TEST(EngineTest, SaturatedGateRejectsCompilesButAnswersPings)
{
    EngineOptions options;
    options.admission = {0, 0};
    Engine engine(options);
    const ServiceResponse rejected = engine.Handle(TinyRequest());
    EXPECT_EQ(rejected.code, StatusCode::kRejected);
    EXPECT_NE(rejected.error.find("capacity"), std::string::npos)
        << rejected.error;
    EXPECT_EQ(rejected.trace_id.size(), 32u);
    EXPECT_TRUE(rejected.phases.empty());

    // Protocol chatter bypasses the gate and reads it.
    ServiceRequest ping;
    ping.kind = "ping";
    const ServiceResponse pong = engine.Handle(ping);
    ASSERT_EQ(pong.code, StatusCode::kOk) << pong.error;
    ASSERT_EQ(pong.diag.count("inflight"), 1u);
    EXPECT_EQ(pong.diag.at("inflight"), 0.0);
    EXPECT_EQ(pong.diag.at("rejected"), 1.0);
    ServiceRequest stats_request;
    stats_request.kind = "stats";
    const ServiceResponse response = engine.Handle(stats_request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    telemetry::JsonValue stats;
    std::string error;
    ASSERT_TRUE(telemetry::ParseJsonValue(response.stats_json, &stats,
                                          &error))
        << error;
    const telemetry::JsonValue* admission = stats.Find("admission");
    ASSERT_NE(admission, nullptr);
    EXPECT_EQ(admission->GetNumber("running"), 0.0);
    EXPECT_EQ(admission->GetNumber("rejected"), 1.0);
}

TEST(EngineTest, QueuedCompileTimesOutWaitingForASlot)
{
    EngineOptions options;
    options.admission = {0, 1};
    Engine engine(options);
    ServiceRequest request = TinyRequest();
    request.deadline_ms = 50;
    const ServiceResponse response = engine.Handle(request);
    EXPECT_EQ(response.code, StatusCode::kTimeout);
    EXPECT_NE(response.error.find("while waiting for a run slot"),
              std::string::npos)
        << response.error;
}

TEST(EngineTest, FailedRequestKeepsItsPhases)
{
    Engine engine;
    ServiceRequest request = TinyRequest();
    request.qasm = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
    const ServiceResponse response = engine.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kError);
    ASSERT_FALSE(response.phases.empty());
    EXPECT_EQ(response.phases.front().phase, "admission");
    double sum = 0.0;
    bool saw_parse = false;
    for (const ServicePhase& phase : response.phases) {
        sum += phase.ms;
        saw_parse |= phase.phase == "parse";
    }
    EXPECT_TRUE(saw_parse);
    EXPECT_NEAR(sum, response.run_ms, 1e-9);
}

TEST(EngineTest, FillRunRecordMapsStatusToExitCode)
{
    ServiceRequest request = TinyRequest();
    ServiceResponse response;
    response.code = StatusCode::kRejected;
    response.error = "server at capacity";
    telemetry::RunRecord record;
    FillRunRecord(request, response, &record);
    EXPECT_EQ(record.exit_code, 2);
    EXPECT_EQ(record.config_hash, request.ConfigHash());
    EXPECT_EQ(record.device, request.device);
    EXPECT_EQ(record.degradation_reason, "server at capacity");
}

// ---------------------------------------------------------------------
// Named devices and snapshot keys

TEST(EngineConcurrency, NamedDevicesAnswerAsTheyDoSerially)
{
    // Four threads race into the first request on each named device,
    // then keep compiling; every answer must equal the serial one.
    const std::vector<std::string> devices = {"poughkeepsie", "johannesburg",
                                              "boeblingen"};
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    Engine engine;
    std::atomic<bool> go{false};
    std::vector<std::vector<std::pair<size_t, std::string>>> answers(
        kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) {
                std::this_thread::yield();
            }
            for (int round = 0; round < kRounds; ++round) {
                for (size_t i = 0; i < devices.size(); ++i) {
                    // Each thread starts on another device.
                    const size_t d = (i + t) % devices.size();
                    ServiceRequest request = TinyRequest();
                    request.device = devices[d];
                    answers[t].emplace_back(
                        d, engine.Handle(request).ToJson(false));
                }
            }
        });
    }
    go.store(true);
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (size_t d = 0; d < devices.size(); ++d) {
        ServiceRequest request = TinyRequest();
        request.device = devices[d];
        const ServiceResponse serial = engine.Handle(request);
        ASSERT_EQ(serial.code, StatusCode::kOk) << serial.error;
        const std::string expected = serial.ToJson(false);
        for (int t = 0; t < kThreads; ++t) {
            for (const auto& [device, answer] : answers[t]) {
                if (device == d) {
                    EXPECT_EQ(answer, expected)
                        << devices[d] << ", thread " << t;
                }
            }
        }
    }
}

TEST(EngineSnapshotKey, NamedDeviceAndItsSpecFileAreDifferentSnapshots)
{
    // The spec text carries no drift seed: a file holding Poughkeepsie's
    // spec parses back to the same text, yet drifts with the parser's
    // seed, so every drifted rate differs. It must not be served the
    // named device's snapshot.
    const std::string spec = SerializeDeviceSpec(MakePoughkeepsie());
    const std::string device_path = TempDevicePath("poughkeepsie_spec");
    {
        std::ofstream file(device_path);
        file << spec;
    }
    const Device from_file = LoadDeviceSpec(device_path);
    ASSERT_EQ(SerializeDeviceSpec(from_file), spec);
    ASSERT_NE(from_file.drift_seed(), MakePoughkeepsie().drift_seed());

    Engine engine;
    ServiceRequest request = TinyRequest();
    request.scheduler = "greedy";
    const ServiceResponse named = engine.Handle(request);
    ASSERT_EQ(named.code, StatusCode::kOk) << named.error;
    EXPECT_FALSE(named.cache_hit);
    request.device_file = device_path;
    const ServiceResponse filed = engine.Handle(request);
    ASSERT_EQ(filed.code, StatusCode::kOk) << filed.error;
    EXPECT_FALSE(filed.cache_hit);
    EXPECT_NE(filed.characterization_id, named.characterization_id);
    std::remove(device_path.c_str());
}

}  // namespace
}  // namespace xtalk::service
