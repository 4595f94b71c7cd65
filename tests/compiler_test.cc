/**
 * @file
 * Tests for the end-to-end Compile() facade: semantic preservation
 * through the pipeline, policy selection, auto-omega behaviour, and
 * quality ordering between policies on conflicted workloads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "circuit/qasm.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "scheduler/portfolio.h"
#include "sim/noisy_simulator.h"

namespace xtalk {
namespace {

/** A 3-qubit GHZ with one long-range CNOT, measured. */
Circuit
LogicalWorkload()
{
    Circuit c(3);
    c.H(0).CX(0, 1).CX(0, 2).T(1).CX(1, 2).MeasureAll();
    return c;
}

TEST(Compiler, ProducesHardwareCompliantExecutable)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const CompileResult result =
        Compile(device, characterization, LogicalWorkload());
    EXPECT_EQ(result.scheduler_name, "XtalkSched");
    for (const Gate& g : result.executable.gates()) {
        if (g.IsTwoQubitUnitary()) {
            EXPECT_TRUE(device.topology().AreConnected(g.qubits[0],
                                                       g.qubits[1]));
        }
    }
    EXPECT_EQ(result.executable.CountKind(GateKind::kMeasure), 3);
    EXPECT_GT(result.estimate.success_probability, 0.0);
    EXPECT_EQ(result.initial_layout.size(), 3u);
    EXPECT_EQ(result.final_layout.size(), 3u);
}

TEST(Compiler, SemanticsPreservedThroughPipeline)
{
    // Noise-free execution of the compiled executable must reproduce the
    // logical circuit's outcome distribution (GHZ: 000 and 111 only,
    // modulo the final layout's classical wiring which Compile keeps on
    // logical clbits).
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit ghz(3);
    ghz.H(0).CX(0, 1).CX(0, 2).MeasureAll();
    const CompileResult result =
        Compile(device, characterization, ghz);

    NoisySimOptions noiseless;
    noiseless.gate_noise = false;
    noiseless.decoherence = false;
    noiseless.readout_noise = false;
    noiseless.seed = 3;
    NoisySimulator sim(device, noiseless);
    const Counts counts = sim.Run(result.schedule, RunSpec{1000});
    EXPECT_NEAR(counts.Probability(0b000) + counts.Probability(0b111), 1.0,
                1e-12);
    EXPECT_NEAR(counts.Probability(0b000), 0.5, 0.06);
}

TEST(Compiler, PolicySelectionIsHonored)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilerOptions options;
    options.scheduler = "serial";
    EXPECT_EQ(Compile(device, characterization, LogicalWorkload(), options)
                  .scheduler_name,
              "SerialSched");
    options.scheduler = "parallel";
    EXPECT_EQ(Compile(device, characterization, LogicalWorkload(), options)
                  .scheduler_name,
              "ParSched");
    options.scheduler = "greedy";
    EXPECT_EQ(Compile(device, characterization, LogicalWorkload(), options)
                  .scheduler_name,
              "GreedySched");
}

TEST(Compiler, XtalkNoWorseThanParallelOnModel)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    // Force a conflicted region with a trivial layout on the conflict
    // qubits: logical pairs map to (10,15) and (11,12).
    Circuit logical(4);
    for (int i = 0; i < 3; ++i) {
        logical.CX(0, 1).CX(2, 3);
    }
    logical.MeasureAll();
    CompilerOptions options;
    options.layout = LayoutPolicy::kTrivial;  // Overridden below via map.
    // Use trivial layout onto a hand-picked conflicted region by
    // remapping the logical circuit onto a 4-qubit window: easier to
    // drive through the public API with a custom circuit.
    Circuit mapped(20);
    mapped.AppendMapped(logical, {10, 15, 11, 12});
    options.scheduler = "parallel";
    const CompileResult parallel =
        Compile(device, characterization, mapped, options);
    options.scheduler = "xtalk";
    const CompileResult xtalk =
        Compile(device, characterization, mapped, options);
    EXPECT_GE(xtalk.estimate.success_probability,
              parallel.estimate.success_probability - 1e-9);
    EXPECT_EQ(xtalk.estimate.crosstalk_overlaps, 0);
}

TEST(Compiler, AutoOmegaPicksFromCandidates)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit mapped(20);
    Circuit logical(4);
    for (int i = 0; i < 3; ++i) {
        logical.CX(0, 1).CX(2, 3);
    }
    logical.MeasureAll();
    mapped.AppendMapped(logical, {10, 15, 11, 12});
    CompilerOptions options;
    options.layout = LayoutPolicy::kTrivial;
    options.scheduler = "auto";
    options.omega_candidates = {0.0, 0.3, 0.7};
    const CompileResult result =
        Compile(device, characterization, mapped, options);
    EXPECT_EQ(result.scheduler_name, "XtalkSched(auto)");
    ASSERT_TRUE(result.omega.has_value());
    EXPECT_TRUE(*result.omega == 0.0 || *result.omega == 0.3 ||
                *result.omega == 0.7);
    // A conflicted circuit should not pick pure parallelism.
    EXPECT_GT(*result.omega, 0.0);
}

TEST(Compiler, OmegaReportedOnlyByOmegaSchedulers)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilerOptions options;
    options.scheduler = "serial";
    EXPECT_FALSE(Compile(device, characterization, LogicalWorkload(),
                         options)
                     .omega.has_value());
    options.scheduler = "parallel";
    EXPECT_FALSE(Compile(device, characterization, LogicalWorkload(),
                         options)
                     .omega.has_value());
    options.scheduler = "xtalk";
    options.xtalk.omega = 0.25;
    const CompileResult xtalk =
        Compile(device, characterization, LogicalWorkload(), options);
    ASSERT_TRUE(xtalk.omega.has_value());
    EXPECT_EQ(*xtalk.omega, 0.25);
    options.scheduler = "greedy";
    const CompileResult greedy =
        Compile(device, characterization, LogicalWorkload(), options);
    ASSERT_TRUE(greedy.omega.has_value());
    EXPECT_EQ(*greedy.omega, 0.25);
}

/**
 * q1 is flipped and measured first; under a trivial layout on
 * Poughkeepsie the later CNOT 0,2 is routed with a SWAP through q1's
 * physical qubit, so c[0] must read logical q1 wherever it ends up.
 */
Circuit
EarlyMeasureWorkload()
{
    Circuit c(3);
    c.X(1).Measure(1, 0).CX(0, 2).Measure(0, 1).Measure(2, 2);
    return c;
}

TEST(Compiler, EarlyMeasureReadsTheFinalLocationUnderEveryPolicy)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    NoisySimOptions noiseless;
    noiseless.gate_noise = false;
    noiseless.decoherence = false;
    noiseless.readout_noise = false;
    for (const PortfolioMemberInfo& row : PortfolioRegistry()) {
        CompilerOptions options;
        options.layout = LayoutPolicy::kTrivial;
        options.scheduler = row.key;
        const CompileResult result = Compile(
            device, characterization, EarlyMeasureWorkload(), options);
        EXPECT_EQ(result.degradation, "none") << row.key;
        const QubitId home = result.final_layout[1];
        ASSERT_NE(home, 1) << "the route no longer moves logical q1";
        EXPECT_NE(ToQasm(result.executable)
                      .find("measure q[" + std::to_string(home) +
                            "] -> c[0];"),
                  std::string::npos)
            << row.key << "\n"
            << ToQasm(result.executable);
        // Noiselessly, c[0] reads the flipped qubit on every shot.
        const Counts counts =
            NoisySimulator(device, noiseless)
                .Run(result.schedule, RunSpec{64});
        for (const auto& [bits, count] : counts.histogram()) {
            EXPECT_EQ(bits & 1u, 1u) << row.key << ": " << count << " x "
                                     << bits;
        }
    }
}

TEST(Compiler, GateAfterMeasureIsRejectedBeforeAnyPass)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit logical(2);
    logical.Measure(0, 0).X(0).Measure(1, 1);
    try {
        Compile(device, characterization, logical);
        ADD_FAILURE() << "a gate after a measurement compiled";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("qubit 0"), std::string::npos)
            << e.what();
        EXPECT_EQ(std::string(e.what()).find("pass '"), std::string::npos)
            << e.what();
    }
    // Barriers after a measurement are ordering only, and stay legal.
    Circuit barriered(2);
    barriered.H(1).Measure(0, 0).BarrierAll().Measure(1, 1);
    EXPECT_NO_THROW(Compile(device, characterization, barriered));
}

TEST(Compiler, TrivialLayoutRejectsTooWideCircuit)
{
    const Device device = MakeLinearDevice(3, 3);
    const auto characterization = GroundTruthCharacterization(device);
    Circuit logical(4);
    logical.CX(0, 3);
    EXPECT_THROW(Compile(device, characterization, logical), Error);
}

TEST(CompilerDegradation, SolverFaultFallsBackToGreedy)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:n=1");
    CompilerOptions options;
    options.verify_passes = true;
    const CompileResult result =
        Compile(device, characterization, LogicalWorkload(), options);
    EXPECT_EQ(result.degradation, "greedy");
    EXPECT_EQ(result.scheduler_name, "GreedySched");
    EXPECT_FALSE(result.degradation_reason.empty());
    const bool noted = std::any_of(
        result.pass_diagnostics.begin(), result.pass_diagnostics.end(),
        [](const std::string& d) {
            return d.find("degraded") != std::string::npos;
        });
    EXPECT_TRUE(noted);
    EXPECT_EQ(result.executable.CountKind(GateKind::kMeasure), 3);
}

TEST(CompilerDegradation, DoubleFaultFallsBackToParallel)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:n=1;sched.greedy:n=1");
    CompilerOptions options;
    options.verify_passes = true;
    const CompileResult result =
        Compile(device, characterization, LogicalWorkload(), options);
    EXPECT_EQ(result.degradation, "parallel");
    EXPECT_EQ(result.scheduler_name, "ParSched");
    EXPECT_FALSE(result.omega.has_value());
    EXPECT_EQ(result.executable.CountKind(GateKind::kMeasure), 3);
}

TEST(CompilerDegradation, FallbackDisabledPropagatesTheFailure)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:n=1");
    // A one-member portfolio has no backups to race past the failure.
    CompilerOptions options;
    options.scheduler = kPortfolioPolicy;
    options.portfolio = {"xtalk"};
    // The pass manager wraps the fault in a contextual Error; what
    // matters is that it stays a user-facing Error (exit 2), never an
    // InternalError, and that the site survives in the message.
    try {
        Compile(device, characterization, LogicalWorkload(), options);
        FAIL() << "expected the injected solver fault to propagate";
    } catch (const InternalError&) {
        FAIL() << "transient fault must not be reported as a bug";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("smt.solve"),
                  std::string::npos);
    }
}

TEST(CompilerDegradation, InternalErrorIsNeverDegradedAround)
{
    // Invariant violations are bugs: the chain must not paper over
    // them, even with fallback enabled.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:n=1,kind=internal");
    EXPECT_THROW(Compile(device, characterization, LogicalWorkload()),
                 InternalError);
}

TEST(CompilerDegradation, AutoOmegaPolicyAlsoDegrades)
{
    // Every auto-omega candidate solve hits the injected fault, so the
    // chain must engage for the auto policy too.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:p=1");
    CompilerOptions options;
    options.scheduler = "auto";
    const CompileResult result =
        Compile(device, characterization, LogicalWorkload(), options);
    EXPECT_EQ(result.degradation, "greedy");
    EXPECT_EQ(result.scheduler_name, "GreedySched");
}

}  // namespace
}  // namespace xtalk
