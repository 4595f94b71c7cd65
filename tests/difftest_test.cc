/**
 * @file
 * Unit tests for the differential-validation stack: the seeded
 * adversarial circuit generator (workloads/adversarial.h), the exact
 * density-matrix schedule replay (sim/density_replay.h), and the
 * cross-backend oracle itself (difftest/difftest.h). The full-size
 * oracle sweep runs via tools/xtalk_difftest in CI; these cases pin
 * the properties each layer promises.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/statistics.h"
#include "compiler/compiler.h"
#include "device/ibmq_devices.h"
#include "difftest/difftest.h"
#include "faults/faults.h"
#include "sim/density_replay.h"
#include "sim/noisy_simulator.h"
#include "workloads/adversarial.h"

namespace xtalk {
namespace {

// ---------------------------------------------------------------------
// Adversarial generator

TEST(AdversarialGenerator, SameSeedIsBitIdentical)
{
    const Device device = MakePoughkeepsie();
    for (AdversarialFamily family : AllAdversarialFamilies()) {
        AdversarialOptions options;
        options.family = family;
        options.max_qubits = 5;
        options.intensity = 3;
        options.seed = 42;
        const Circuit a = BuildAdversarialCircuit(device, options);
        const Circuit b = BuildAdversarialCircuit(device, options);
        EXPECT_EQ(a.ToString(), b.ToString()) << ToString(family);
    }
}

TEST(AdversarialGenerator, DifferentSeedsGiveDifferentCircuits)
{
    const Device device = MakeJohannesburg();
    AdversarialOptions options;
    options.family = AdversarialFamily::kParallelCxMesh;
    options.max_qubits = 6;
    options.intensity = 3;
    options.seed = 1;
    const Circuit a = BuildAdversarialCircuit(device, options);
    options.seed = 2;
    const Circuit b = BuildAdversarialCircuit(device, options);
    EXPECT_NE(a.ToString(), b.ToString());
}

TEST(AdversarialGenerator, FamilyNamesRoundTrip)
{
    for (AdversarialFamily family : AllAdversarialFamilies()) {
        EXPECT_EQ(ParseAdversarialFamily(ToString(family)), family);
    }
    EXPECT_THROW(ParseAdversarialFamily("made-up"), Error);
}

TEST(AdversarialGenerator, CliffordFamiliesEmitOnlyCliffordGates)
{
    const std::set<GateKind> clifford = {
        GateKind::kI,  GateKind::kX,   GateKind::kY,  GateKind::kZ,
        GateKind::kH,  GateKind::kS,   GateKind::kSdg, GateKind::kSX,
        GateKind::kCX, GateKind::kCZ,  GateKind::kBarrier,
        GateKind::kMeasure};
    const Device device = MakeBoeblingen();
    int clifford_families = 0;
    for (AdversarialFamily family : AllAdversarialFamilies()) {
        if (!IsCliffordFamily(family)) {
            continue;
        }
        ++clifford_families;
        AdversarialOptions options;
        options.family = family;
        options.max_qubits = 5;
        options.intensity = 4;
        options.seed = 7;
        const Circuit circuit = BuildAdversarialCircuit(device, options);
        for (const Gate& gate : circuit.gates()) {
            EXPECT_TRUE(clifford.count(gate.kind) > 0)
                << ToString(family) << " emitted non-Clifford gate kind "
                << static_cast<int>(gate.kind);
        }
    }
    // The stabilizer arm of the oracle is only meaningful if some
    // families actually qualify.
    EXPECT_GE(clifford_families, 2);
}

TEST(AdversarialGenerator, EveryActiveQubitMeasuredOnceTerminally)
{
    const Device device = MakePoughkeepsie();
    for (AdversarialFamily family : AllAdversarialFamilies()) {
        AdversarialOptions options;
        options.family = family;
        options.max_qubits = 5;
        options.intensity = 3;
        options.seed = 11;
        const Circuit circuit = BuildAdversarialCircuit(device, options);
        std::map<QubitId, int> measures;
        std::set<QubitId> measured;
        for (const Gate& gate : circuit.gates()) {
            if (gate.kind == GateKind::kMeasure) {
                ++measures[gate.qubits[0]];
                measured.insert(gate.qubits[0]);
            } else {
                // The exact replay requires terminal measures: no gate
                // may follow a qubit's readout.
                for (QubitId q : gate.qubits) {
                    EXPECT_EQ(measured.count(q), 0u)
                        << ToString(family) << ": gate after measure on q"
                        << q;
                }
            }
        }
        const std::vector<QubitId> active = circuit.ActiveQubits();
        EXPECT_LE(active.size(), 5u) << ToString(family);
        EXPECT_EQ(measures.size(), active.size()) << ToString(family);
        for (const auto& [qubit, count] : measures) {
            EXPECT_EQ(count, 1) << ToString(family) << " q" << qubit;
        }
    }
}

// ---------------------------------------------------------------------
// Density-matrix schedule replay

TEST(DensityReplay, NoiseFreeReplayMatchesIdealProbabilities)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    AdversarialOptions gen;
    gen.family = AdversarialFamily::kParallelCxMesh;
    gen.max_qubits = 4;
    gen.intensity = 2;
    gen.seed = 5;
    const Circuit circuit = BuildAdversarialCircuit(device, gen);
    CompilerOptions copts;
    copts.scheduler = "greedy";
    const CompileResult compiled =
        Compile(device, characterization, circuit, copts);

    NoisySimOptions noise_free;
    noise_free.gate_noise = false;
    noise_free.crosstalk = false;
    noise_free.decoherence = false;
    noise_free.readout_noise = false;
    const DensityReplayResult replay =
        ReplayScheduleDensity(device, compiled.schedule, noise_free);
    const NoisySimulator reference(device, noise_free);
    const std::vector<double> ideal =
        reference.IdealProbabilities(compiled.schedule);
    ASSERT_EQ(replay.probabilities.size(), ideal.size());
    for (size_t i = 0; i < ideal.size(); ++i) {
        EXPECT_NEAR(replay.probabilities[i], ideal[i], 1e-9) << i;
    }
}

TEST(DensityReplay, NoisyReplayIsTracePreservingAndNearTrajectories)
{
    const Device device = MakeJohannesburg();
    const auto characterization = GroundTruthCharacterization(device);
    AdversarialOptions gen;
    gen.family = AdversarialFamily::kReadoutHeavy;
    gen.max_qubits = 4;
    gen.intensity = 2;
    gen.seed = 9;
    const Circuit circuit = BuildAdversarialCircuit(device, gen);
    CompilerOptions copts;
    copts.scheduler = "greedy";
    const CompileResult compiled =
        Compile(device, characterization, circuit, copts);

    const DensityReplayResult replay =
        ReplayScheduleDensity(device, compiled.schedule);
    EXPECT_NEAR(replay.trace, 1.0, 1e-6);

    const int shots = 4096;
    NoisySimulator sim(device);
    const Counts counts =
        sim.Run(compiled.schedule, RunSpec(shots, 77));
    const double tvd =
        TotalVariationDistance(counts.ToProbabilities(),
                               replay.probabilities);
    // Multinomial sampling error dominates at this shot budget; the
    // bound matches the oracle's threshold construction.
    const double bound =
        0.03 + std::sqrt(static_cast<double>(
                   replay.probabilities.size()) / shots);
    EXPECT_LT(tvd, bound);
}

TEST(DensityReplay, RejectsNonTerminalMeasures)
{
    // The compiler pipeline normalizes measures to the end, so a
    // mid-circuit measure can only reach the replay through a
    // hand-built schedule — which is exactly the misuse the guard is
    // for.
    const Device device = MakePoughkeepsie();
    ScheduledCircuit schedule(device.num_qubits());
    Gate h;
    h.kind = GateKind::kH;
    h.qubits = {0};
    Gate measure;
    measure.kind = GateKind::kMeasure;
    measure.qubits = {0};
    measure.cbit = 0;
    Gate x;
    x.kind = GateKind::kX;
    x.qubits = {0};
    schedule.Add(h, 0.0, 50.0);
    schedule.Add(measure, 50.0, 1000.0);
    schedule.Add(x, 1050.0, 50.0);  // Gate after readout.
    EXPECT_THROW(ReplayScheduleDensity(device, schedule), Error);
}

// ---------------------------------------------------------------------
// Differential oracle

TEST(DifferentialOracle, SmallSweepHasNoDivergences)
{
    difftest::OracleOptions options;
    options.families = {AdversarialFamily::kParallelCxMesh,
                        AdversarialFamily::kCliffordOnly};
    options.devices = {MakePoughkeepsie()};
    options.shots = 1024;
    options.max_qubits = 4;
    options.intensity = 2;
    const difftest::OracleReport report =
        difftest::RunDifferentialOracle(options);
    ASSERT_EQ(report.cases.size(), 2u);
    EXPECT_TRUE(report.ok()) << report.Summary();
    for (const auto& result : report.cases) {
        EXPECT_TRUE(result.passed()) << result.Line();
        EXPECT_EQ(result.degradation, "none");
        EXPECT_TRUE(result.fault_outcome.empty());
        EXPECT_GT(result.width, 0);
        EXPECT_LT(result.tvd_sv_dm, result.threshold) << result.Line();
    }
    // The Clifford case exercised the stabilizer arm.
    EXPECT_TRUE(report.cases[1].clifford);
    EXPECT_GT(report.cases[1].tvd_stab_dm, 0.0);
    EXPECT_EQ(report.cases[0].tvd_stab_dm, 0.0);
    EXPECT_NE(report.ToJson().find("\"cases\""), std::string::npos);
}

TEST(DifferentialOracle, InjectedFaultsHealOrDegradeStructurally)
{
    difftest::OracleOptions options;
    options.families = {AdversarialFamily::kDepthChain};
    options.devices = {MakeBoeblingen()};
    options.shots = 512;
    options.max_qubits = 4;
    options.intensity = 2;
    options.fault_plan = "sched.greedy:p=1.0;seed=13";
    const difftest::OracleReport report =
        difftest::RunDifferentialOracle(options);
    ASSERT_EQ(report.cases.size(), 1u);
    const difftest::CaseResult& result = report.cases[0];
    // A 100%-armed fault may heal (retry), degrade, or error — all
    // structured; what it may never do is silently diverge.
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_FALSE(result.fault_outcome.empty());
    EXPECT_TRUE(result.fault_outcome == "healed" ||
                result.fault_outcome.rfind("degraded", 0) == 0 ||
                result.fault_outcome.rfind("error:", 0) == 0)
        << result.fault_outcome;
}

TEST(DifferentialOracle, SameSeedSweepsAreReproducible)
{
    difftest::OracleOptions options;
    options.families = {AdversarialFamily::kReadoutHeavy};
    options.devices = {MakeJohannesburg()};
    options.shots = 512;
    options.max_qubits = 4;
    options.intensity = 2;
    const difftest::OracleReport first =
        difftest::RunDifferentialOracle(options);
    const difftest::OracleReport second =
        difftest::RunDifferentialOracle(options);
    EXPECT_EQ(first.ToJson(), second.ToJson());
}

}  // namespace
}  // namespace xtalk
