/**
 * @file
 * Tests for the pass-manager architecture: the registry, custom
 * pipelines, precondition and ordering diagnostics, the inter-pass
 * verification sweep, per-pass telemetry, and bit-identical equivalence
 * of the Compile() wrapper with the legacy single-function facade.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "compiler/passes.h"
#include "compiler/verification.h"
#include "circuit/qasm.h"
#include "device/ibmq_devices.h"
#include "scheduler/analysis.h"
#include "scheduler/anneal_scheduler.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/omega_tuning.h"
#include "scheduler/portfolio.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"
#include "telemetry/telemetry.h"
#include "transpile/layout.h"
#include "transpile/routing.h"

namespace xtalk {
namespace {

/** A workload whose long-range CNOT forces routing on every device. */
Circuit
NonAdjacentWorkload()
{
    Circuit c(4);
    c.H(0).CX(0, 3).CX(1, 2).T(2).CX(0, 3).MeasureAll();
    return c;
}

TEST(PassRegistry, ListsEveryExpectedPassSortedByName)
{
    const std::vector<PassInfo> infos = RegisteredPasses();
    std::set<std::string> names;
    for (const PassInfo& info : infos) {
        names.insert(info.name);
    }
    for (const char* expected :
         {"layout", "layout:trivial", "layout:noise-aware", "route",
          "schedule", "schedule:serial", "schedule:parallel",
          "schedule:greedy", "schedule:anneal", "schedule:xtalk",
          "schedule:auto", "schedule:portfolio", "lower-barriers", "estimate", "verify-layout",
          "verify-connectivity", "verify-order", "verify-readout",
          "verify-executable"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }
    for (size_t i = 1; i < infos.size(); ++i) {
        EXPECT_LT(infos[i - 1].name, infos[i].name);
    }
    for (const PassInfo& info : infos) {
        EXPECT_EQ(info.verification,
                  info.name.rfind("verify-", 0) == 0)
            << info.name;
        EXPECT_FALSE(info.description.empty()) << info.name;
    }
}

TEST(PassRegistry, UnknownNameThrowsListingKnownPasses)
{
    try {
        CreateRegisteredPass("bogus");
        FAIL() << "expected xtalk::Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown pass 'bogus'"), std::string::npos);
        EXPECT_NE(what.find("lower-barriers"), std::string::npos);
    }
}

TEST(PassManager, DefaultPipelineHasTheFigure2Stages)
{
    const PassManager pipeline = MakeDefaultPipeline();
    EXPECT_EQ(pipeline.PassNames(),
              (std::vector<std::string>{"layout", "route", "schedule",
                                        "lower-barriers", "estimate"}));
}

TEST(PassManager, RouteWithoutLayoutFailsNamingThePass)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilationState state(device, characterization,
                           NonAdjacentWorkload());
    PassManager pipeline;
    pipeline.AddPass("route");
    try {
        pipeline.Run(state);
        FAIL() << "expected xtalk::Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("pass 'route'"), std::string::npos) << what;
        EXPECT_NE(what.find("layout"), std::string::npos) << what;
    }
}

TEST(PassManager, LowerBarriersWithoutScheduleFailsNamingThePass)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilationState state(device, characterization,
                           NonAdjacentWorkload());
    PassManager pipeline;
    pipeline.AddPass("lower-barriers");
    try {
        pipeline.Run(state);
        FAIL() << "expected xtalk::Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("pass 'lower-barriers'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PassManager, ScheduleBeforeRouteFailsNamingTheOffendingPass)
{
    // The classic broken ordering: scheduling a non-adjacent circuit
    // without routing it first must fail inside the schedule pass with
    // a diagnostic carrying the pass name and pipeline position.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilationState state(device, characterization,
                           NonAdjacentWorkload());
    state.options.scheduler = "serial";
    PassManager pipeline;
    pipeline.AddPass("layout").AddPass("schedule");
    try {
        pipeline.Run(state);
        FAIL() << "expected xtalk::Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("pass 'schedule' (2/2 in pipeline)"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("uncoupled"), std::string::npos) << what;
    }
}

TEST(PassManager, CustomPipelineWithExplicitVariantsRuns)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilationState state(device, characterization,
                           NonAdjacentWorkload());
    // Explicit variant names override the (default xtalk) options.
    PassManager pipeline;
    pipeline.AddPass("layout:trivial")
        .AddPass("route")
        .AddPass("schedule:parallel")
        .AddPass("lower-barriers");
    pipeline.Run(state);
    EXPECT_EQ(state.scheduler_name, "ParSched");
    EXPECT_FALSE(state.omega.has_value());
    ASSERT_TRUE(state.executable.has_value());
    for (size_t l = 0; l < state.initial_layout.size(); ++l) {
        EXPECT_EQ(state.initial_layout[l], static_cast<QubitId>(l));
    }
    EXPECT_FALSE(state.estimate.has_value());  // No estimate pass ran.
    EXPECT_EQ(state.diagnostics.size(), 4u);
}

TEST(PassManager, VerificationSweepAcceptsTheDefaultPipeline)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    for (const char* policy : {"serial", "parallel", "greedy", "xtalk"}) {
        CompilerOptions options;
        options.scheduler = policy;
        options.verify_passes = true;
        const CompileResult result = Compile(
            device, characterization, NonAdjacentWorkload(), options);
        EXPECT_GT(result.schedule.size(), 0);
    }
}

TEST(Verification, ConnectivityCheckRejectsUnroutedCircuit)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilationState state(device, characterization,
                           NonAdjacentWorkload());
    // Forge a "routed" product that was never actually routed.
    state.initial_layout = TrivialLayout(state.logical);
    state.final_layout = state.initial_layout;
    state.routed = state.logical;
    VerifyConnectivityPass verify;
    ASSERT_TRUE(verify.Applicable(state));
    try {
        verify.Run(state);
        FAIL() << "expected xtalk::Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("uncoupled"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Verification, OrderCheckRejectsDroppedGate)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit adjacent(2);
    adjacent.H(0).CX(0, 1).T(1);
    CompilationState state(device, characterization, adjacent);
    SerialScheduler scheduler(device);
    state.schedule = scheduler.Schedule(adjacent);
    VerifyOrderPass verify;
    ASSERT_TRUE(verify.Applicable(state));
    verify.Run(state);  // Faithful schedule passes.

    // Drop one gate: the multiset check must catch it.
    ScheduledCircuit broken(adjacent.num_qubits());
    for (int i = 0; i + 1 < state.schedule->size(); ++i) {
        const TimedGate& tg = state.schedule->gates()[i];
        broken.Add(tg.gate, tg.start_ns, tg.duration_ns);
    }
    state.schedule = broken;
    EXPECT_THROW(verify.Run(state), Error);
}

TEST(Verification, ReadoutCheckRejectsStaggeredMeasurement)
{
    const Device device = MakePoughkeepsie();
    ASSERT_TRUE(device.traits().simultaneous_readout);
    const auto characterization = GroundTruthCharacterization(device);
    Circuit circuit(2);
    circuit.H(0).Measure(0, 0).Measure(1, 1);
    CompilationState state(device, characterization, circuit);
    ScheduledCircuit staggered(circuit.num_qubits());
    staggered.Add(circuit.gate(0), 0.0, 35.0);
    staggered.Add(circuit.gate(1), 100.0, 500.0);
    staggered.Add(circuit.gate(2), 250.0, 500.0);  // Not simultaneous.
    state.schedule = staggered;
    VerifyReadoutPass verify;
    ASSERT_TRUE(verify.Applicable(state));
    EXPECT_THROW(verify.Run(state), Error);
}

TEST(Verification, LayoutCheckRejectsDuplicatePhysicalQubit)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilationState state(device, characterization,
                           NonAdjacentWorkload());
    state.initial_layout = {0, 1, 1, 3};  // Not injective.
    VerifyLayoutPass verify;
    ASSERT_TRUE(verify.Applicable(state));
    EXPECT_THROW(verify.Run(state), Error);
}

TEST(PassManager, AutoVerifyWrapsFailureWithVerifierAndPassNames)
{
    // A hostile pass that corrupts the layout; the auto-verify sweep
    // must attribute the failure to both the verifier and the pass.
    class CorruptLayoutPass : public Pass {
      public:
        std::string name() const override { return "corrupt-layout"; }
        std::string description() const override { return "test only"; }
        void Run(CompilationState& state) override
        {
            state.initial_layout.assign(state.logical.num_qubits(), 0);
        }
    };
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilationState state(device, characterization,
                           NonAdjacentWorkload());
    PassManagerOptions options;
    options.verify = true;
    PassManager pipeline(options);
    pipeline.AddPass(std::make_unique<CorruptLayoutPass>());
    try {
        pipeline.Run(state);
        FAIL() << "expected xtalk::Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("verification pass 'verify-layout'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("after pass 'corrupt-layout'"),
                  std::string::npos)
            << what;
    }
}

TEST(PassManager, PerPassTelemetryIsRecorded)
{
    telemetry::SetEnabled(true);
    telemetry::Registry::Global().Reset();
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilerOptions options;
    options.scheduler = "serial";
    options.verify_passes = true;
    Compile(device, characterization, NonAdjacentWorkload(), options);
    const std::string json = telemetry::StatsJson();
    telemetry::SetEnabled(false);
    telemetry::Registry::Global().Reset();
    for (const char* metric :
         {"compiler.pass.layout.duration_us",
          "compiler.pass.route.duration_us",
          "compiler.pass.schedule.duration_us",
          "compiler.pass.lower-barriers.duration_us",
          "compiler.pass.estimate.duration_us",
          "compiler.pass.schedule.runs", "compiler.verify.checks"}) {
        EXPECT_NE(json.find(metric), std::string::npos) << metric;
    }
    // No verification failed, so the failure counter was never minted.
    EXPECT_EQ(json.find("compiler.verify.failures"), std::string::npos);
}

/**
 * Replica of the pre-refactor single-function Compile() facade, kept
 * verbatim (minus telemetry) as the bit-identical oracle, plus a direct
 * AnnealScheduler branch for the member added after it.
 */
CompileResult
LegacyCompile(const Device& device,
              const CrosstalkCharacterization& characterization,
              const Circuit& logical, const CompilerOptions& options)
{
    CompileResult result;
    switch (options.layout) {
      case LayoutPolicy::kTrivial:
        result.initial_layout = TrivialLayout(logical);
        break;
      case LayoutPolicy::kNoiseAware:
        result.initial_layout =
            NoiseAwareLayout(device, logical, &characterization,
                             options.layout_crosstalk_penalty);
        break;
    }
    const RoutingResult routed =
        RouteCircuit(device, logical, result.initial_layout);
    result.final_layout = routed.final_layout;
    if (options.scheduler == "xtalk") {
        XtalkScheduler scheduler(device, characterization, options.xtalk);
        result.executable = scheduler.ScheduleWithBarriers(
            routed.circuit, &result.schedule);
        result.omega = options.xtalk.omega;
        result.scheduler_name = scheduler.name();
    } else if (options.scheduler == "auto") {
        const OmegaSelection selection =
            SelectOmegaByModel(device, characterization, routed.circuit,
                               options.omega_candidates, options.xtalk);
        XtalkSchedulerOptions tuned = options.xtalk;
        tuned.omega = selection.omega;
        XtalkScheduler scheduler(device, characterization, tuned);
        result.executable = scheduler.ScheduleWithBarriers(
            routed.circuit, &result.schedule);
        result.omega = selection.omega;
        result.scheduler_name = "XtalkSched(auto)";
    } else if (options.scheduler == "anneal") {
        AnnealSchedulerOptions anneal;
        anneal.omega = options.xtalk.omega;
        AnnealScheduler scheduler(device, characterization, anneal);
        result.schedule = scheduler.Schedule(routed.circuit);
        result.executable = result.schedule.ToCircuit();
        result.omega = anneal.omega;
        result.scheduler_name = scheduler.name();
    } else {
        std::unique_ptr<Scheduler> scheduler;
        if (options.scheduler == "serial") {
            scheduler = std::make_unique<SerialScheduler>(device);
        } else if (options.scheduler == "parallel") {
            scheduler = std::make_unique<ParallelScheduler>(device);
        } else if (options.scheduler == "greedy") {
            scheduler = std::make_unique<GreedyXtalkScheduler>(
                device, characterization);
        } else {
            throw Error("no legacy scheduler for policy '" +
                        options.scheduler + "'");
        }
        result.schedule = scheduler->Schedule(routed.circuit);
        result.executable = result.schedule.ToCircuit();
        result.scheduler_name = scheduler->name();
    }
    result.estimate = EstimateScheduleError(result.schedule, device,
                                            characterization);
    return result;
}

/**
 * One portfolio registry row, by index. gtest prints a struct as its
 * raw bytes, so each instantiated test is named after its row index
 * (".../4-byte object <00-00 00-00>" is serial) and keeps that name
 * when a row's text changes.
 */
struct RegistryRow {
    int index = 0;
};

std::vector<RegistryRow>
EveryRegistryRow()
{
    std::vector<RegistryRow> rows;
    for (size_t i = 0; i < PortfolioRegistry().size(); ++i) {
        rows.push_back(RegistryRow{static_cast<int>(i)});
    }
    return rows;
}

class FacadeEquivalenceSweep : public ::testing::TestWithParam<RegistryRow> {
};

TEST_P(FacadeEquivalenceSweep, CompileIsBitIdenticalToTheLegacyFacade)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const Circuit logical = NonAdjacentWorkload();
    CompilerOptions options;
    options.scheduler = PortfolioRegistry()[GetParam().index].key;
    options.omega_candidates = {0.0, 0.5, 1.0};

    const CompileResult now =
        Compile(device, characterization, logical, options);
    const CompileResult then =
        LegacyCompile(device, characterization, logical, options);

    EXPECT_EQ(now.initial_layout, then.initial_layout);
    EXPECT_EQ(now.final_layout, then.final_layout);
    EXPECT_EQ(now.scheduler_name, then.scheduler_name);
    // Bit-identical executables and schedules.
    EXPECT_EQ(ToQasm(now.executable), ToQasm(then.executable));
    EXPECT_EQ(now.schedule.ToString(), then.schedule.ToString());
    EXPECT_EQ(now.estimate.success_probability,
              then.estimate.success_probability);
    EXPECT_EQ(now.estimate.crosstalk_overlaps,
              then.estimate.crosstalk_overlaps);
    if (then.omega.has_value()) {
        ASSERT_TRUE(now.omega.has_value());
        EXPECT_EQ(*now.omega, *then.omega);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, FacadeEquivalenceSweep,
                         ::testing::ValuesIn(EveryRegistryRow()));

}  // namespace
}  // namespace xtalk
