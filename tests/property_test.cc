/**
 * @file
 * Property-based tests: parameterized sweeps over randomized inputs
 * checking cross-module invariants —
 *  - scheduler correctness properties (dependencies, readout alignment,
 *    no high-crosstalk overlap at omega >= 0.5) over random circuits;
 *  - schedule dominance: XtalkSched's modeled objective never loses to
 *    either baseline under its own error model;
 *  - simulator physicality (normalization, monotone degradation with
 *    added noise);
 *  - RB inverse property for random sequence lengths;
 *  - bin-packing feasibility across devices and separations;
 *  - pass-pipeline preservation: the fully verified compile pipeline
 *    keeps per-qubit program order and the non-SWAP gate multiset on
 *    every paper device, deterministically.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "characterization/binpack.h"
#include "clifford/group.h"
#include "clifford/tableau.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "device/ibmq_devices.h"
#include "scheduler/analysis.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"
#include "sim/noisy_simulator.h"
#include "circuit/qasm.h"
#include "common/error.h"
#include "circuit/qasm_parser.h"
#include "workloads/supremacy.h"

namespace xtalk {
namespace {

/**
 * Ground truth filtered to the scheduler's own high-crosstalk test: only
 * conditional entries the scheduler would treat as candidates are kept,
 * so the analysis model and the solver's world coincide exactly.
 */
CrosstalkCharacterization
SchedulerViewCharacterization(const Device& device)
{
    const CrosstalkCharacterization full = GroundTruthCharacterization(device);
    CrosstalkCharacterization filtered;
    for (EdgeId e = 0; e < device.topology().num_edges(); ++e) {
        filtered.SetIndependentError(e, device.CxError(e));
    }
    for (const auto& [pair, value] : full.conditional_entries()) {
        if (full.IsHighCrosstalk(pair.first, pair.second)) {
            filtered.SetConditionalError(pair.first, pair.second, value);
        }
    }
    return filtered;
}

/** Random hardware-compliant circuit on a device. */
Circuit
RandomDeviceCircuit(const Device& device, int num_gates, Rng& rng)
{
    const Topology& topo = device.topology();
    Circuit c(topo.num_qubits());
    for (int i = 0; i < num_gates; ++i) {
        if (rng.Bernoulli(0.45)) {
            const EdgeId e =
                static_cast<EdgeId>(rng.UniformInt(topo.num_edges()));
            c.CX(topo.edge(e).a, topo.edge(e).b);
        } else {
            const QubitId q =
                static_cast<QubitId>(rng.UniformInt(topo.num_qubits()));
            switch (rng.UniformInt(3)) {
              case 0: c.H(q); break;
              case 1: c.T(q); break;
              default: c.U2(0.3, 1.1, q); break;
            }
        }
    }
    // Measure a few touched qubits.
    const auto active = c.ActiveQubits();
    for (size_t k = 0; k < std::min<size_t>(active.size(), 4); ++k) {
        c.Measure(active[k], static_cast<ClbitId>(k));
    }
    return c;
}

/** Validate universal schedule invariants for any scheduler output. */
void
CheckScheduleInvariants(const Device& device, const Circuit& circuit,
                        const ScheduledCircuit& schedule)
{
    // Every non-barrier gate appears exactly once.
    int expected = 0;
    for (const Gate& g : circuit.gates()) {
        expected += g.IsBarrier() ? 0 : 1;
    }
    ASSERT_EQ(schedule.size(), expected);

    // Data dependencies: per qubit, start times never precede the end of
    // the previous gate on that qubit.
    std::vector<double> last_end(device.num_qubits(), 0.0);
    for (const TimedGate& tg : schedule.gates()) {
        for (QubitId q : tg.gate.qubits) {
            EXPECT_GE(tg.start_ns, last_end[q] - 1e-6)
                << "dependency violated on qubit " << q;
        }
        for (QubitId q : tg.gate.qubits) {
            last_end[q] = std::max(last_end[q], tg.end_ns());
        }
        EXPECT_GE(tg.start_ns, -1e-9);
    }

    // Simultaneous readout.
    double measure_start = -1.0;
    for (const TimedGate& tg : schedule.gates()) {
        if (tg.gate.IsMeasure()) {
            if (measure_start < 0.0) {
                measure_start = tg.start_ns;
            }
            EXPECT_NEAR(tg.start_ns, measure_start, 1e-6);
        }
    }
}

class SchedulerPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerPropertySweep, AllSchedulersSatisfyInvariants)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Rng rng(GetParam());
    const Circuit circuit = RandomDeviceCircuit(device, 25, rng);

    SerialScheduler serial(device);
    ParallelScheduler parallel(device);
    GreedyXtalkScheduler greedy(device, characterization);
    XtalkScheduler xtalk(device, characterization);
    for (Scheduler* scheduler : std::initializer_list<Scheduler*>{
             &serial, &parallel, &greedy, &xtalk}) {
        SCOPED_TRACE(scheduler->name());
        CheckScheduleInvariants(device, circuit,
                                scheduler->Schedule(circuit));
    }
}

TEST_P(SchedulerPropertySweep, XtalkSchedNeverOverlapsHighPairs)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = SchedulerViewCharacterization(device);
    Rng rng(1000 + GetParam());
    const Circuit circuit = RandomDeviceCircuit(device, 30, rng);
    XtalkScheduler xtalk(device, characterization);
    const ScheduledCircuit schedule = xtalk.Schedule(circuit);
    // No pair the scheduler itself considers high-crosstalk may overlap.
    const Topology& topo = device.topology();
    for (int i = 0; i < schedule.size(); ++i) {
        const Gate& gi = schedule.gates()[i].gate;
        if (!gi.IsTwoQubitUnitary()) {
            continue;
        }
        const EdgeId ei = topo.FindEdge(gi.qubits[0], gi.qubits[1]);
        for (const TimedGate& other : schedule.gates()) {
            const Gate& gj = other.gate;
            if (!gj.IsTwoQubitUnitary() ||
                !TimedGate::Overlaps(schedule.gates()[i], other)) {
                continue;
            }
            const EdgeId ej = topo.FindEdge(gj.qubits[0], gj.qubits[1]);
            if (ej < 0 || ej == ei) {
                continue;
            }
            EXPECT_FALSE(characterization.IsHighCrosstalk(ei, ej))
                << "high-crosstalk overlap between edges " << ei << " and "
                << ej;
        }
    }
}

TEST_P(SchedulerPropertySweep, XtalkSchedDominatesBaselinesOnModel)
{
    const Device device = MakePoughkeepsie();
    // Use the scheduler-view data so the analysis objective matches the
    // solver's objective exactly (sub-threshold conditionals excluded).
    const auto characterization = SchedulerViewCharacterization(device);
    Rng rng(2000 + GetParam());
    const Circuit circuit = RandomDeviceCircuit(device, 20, rng);

    SerialScheduler serial(device);
    ParallelScheduler parallel(device);
    XtalkScheduler xtalk(device, characterization);
    const double omega = 0.5;
    const double obj_serial =
        EstimateScheduleError(serial.Schedule(circuit), device,
                              characterization)
            .Objective(omega);
    const double obj_parallel =
        EstimateScheduleError(parallel.Schedule(circuit), device,
                              characterization)
            .Objective(omega);
    const double obj_xtalk =
        EstimateScheduleError(xtalk.Schedule(circuit), device,
                              characterization)
            .Objective(omega);
    // Small tolerance covers the solver's 0.01 ns quantization and the
    // 1e-4 decoherence-weight floor.
    EXPECT_LE(obj_xtalk, obj_serial + 1e-3);
    EXPECT_LE(obj_xtalk, obj_parallel + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertySweep,
                         ::testing::Range(1, 9));

class RbInverseSweep : public ::testing::TestWithParam<int> {};

TEST_P(RbInverseSweep, RandomCliffordSequencePlusInverseIsIdentity)
{
    const int m = GetParam();
    const CliffordGroup& group = CliffordGroup::Shared(2);
    Rng rng(m * 31);
    Tableau acc(2);
    for (int k = 0; k < m; ++k) {
        for (const Gate& g : group.circuit(group.Sample(rng)).gates()) {
            acc.ApplyGate(g);
        }
    }
    const Circuit inverse = acc.SynthesizeInverse();
    for (const Gate& g : inverse.gates()) {
        acc.ApplyGate(g);
    }
    EXPECT_TRUE(acc.IsIdentity());
    // The inverse is a single Clifford: bounded gate count.
    EXPECT_LE(inverse.size(), 16);
}

INSTANTIATE_TEST_SUITE_P(Lengths, RbInverseSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

class BinPackSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BinPackSweep, PackingIsCompleteAndFeasible)
{
    const auto [device_index, separation] = GetParam();
    const Device device = MakePaperDevices()[device_index];
    const Topology& topo = device.topology();
    auto pairs = topo.EdgePairsAtDistance(1);
    Rng rng(7);
    const auto bins =
        RandomizedFirstFitPack(topo, pairs, separation, 10, rng);
    size_t placed = 0;
    for (const auto& bin : bins) {
        placed += bin.size();
        for (size_t i = 0; i < bin.size(); ++i) {
            ExperimentBin rest(bin.begin(), bin.begin() + i);
            EXPECT_TRUE(
                IsCompatibleWithBin(topo, bin[i], rest, separation));
        }
    }
    EXPECT_EQ(placed, pairs.size());
    // Larger separations can only need at least as many bins.
    if (separation > 1) {
        const auto looser =
            RandomizedFirstFitPack(topo, pairs, separation - 1, 10, rng);
        EXPECT_LE(looser.size(), bins.size() + 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSeparations, BinPackSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2, 3)));

class NoiseMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(NoiseMonotonicity, MoreNoiseSourcesNeverImproveFidelity)
{
    const Device device = MakePoughkeepsie();
    Rng rng(300 + GetParam());
    const Circuit circuit = RandomDeviceCircuit(device, 15, rng);
    ParallelScheduler scheduler(device);
    const ScheduledCircuit schedule = scheduler.Schedule(circuit);

    auto success = [&](bool gate, bool decoherence, bool readout) {
        NoisySimOptions options;
        options.gate_noise = gate;
        options.decoherence = decoherence;
        options.readout_noise = readout;
        options.seed = 99;
        NoisySimulator sim(device, options);
        const auto ideal = sim.IdealProbabilities(schedule);
        const Counts counts = sim.Run(schedule, RunSpec{1024});
        // Total-variation agreement with the noise-free distribution.
        double tv = 0.0;
        const auto measured = counts.ToProbabilities();
        for (size_t i = 0; i < ideal.size(); ++i) {
            tv += std::abs(measured[i] - ideal[i]);
        }
        return 1.0 - 0.5 * tv;
    };

    const double clean = success(false, false, false);
    const double gate_only = success(true, false, false);
    const double all = success(true, true, true);
    EXPECT_GE(clean + 0.05, gate_only);
    EXPECT_GE(gate_only + 0.08, all);
    EXPECT_GT(clean, 0.93);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoiseMonotonicity, ::testing::Range(0, 4));

class SupremacyScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(SupremacyScheduleSweep, LargeCircuitsScheduleCorrectly)
{
    const Device device = MakeGridDevice(3, 4, 11);
    const auto characterization = GroundTruthCharacterization(device);
    SupremacyOptions options;
    options.num_qubits = 12;
    options.target_gates = 40 * GetParam();
    options.seed = GetParam();
    const Circuit circuit = BuildSupremacyCircuit(device, options);
    XtalkScheduler xtalk(device, characterization);
    const ScheduledCircuit schedule = xtalk.Schedule(circuit);
    CheckScheduleInvariants(device, circuit, schedule);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SupremacyScheduleSweep,
                         ::testing::Values(1, 2));

class QasmRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(QasmRoundTripSweep, RandomCircuitsSurviveExportImport)
{
    const Device device = MakePoughkeepsie();
    Rng rng(4000 + GetParam());
    const Circuit original = RandomDeviceCircuit(device, 30, rng);
    const Circuit parsed = ParseQasm(ToQasm(original));
    ASSERT_EQ(parsed.num_qubits(), original.num_qubits());
    // Gate-for-gate identical (no swaps in RandomDeviceCircuit, so the
    // exporter performs no lowering).
    ASSERT_EQ(parsed.size(), original.size());
    for (int i = 0; i < original.size(); ++i) {
        EXPECT_EQ(parsed.gate(i).kind, original.gate(i).kind) << i;
        EXPECT_EQ(parsed.gate(i).qubits, original.gate(i).qubits) << i;
        EXPECT_EQ(parsed.gate(i).cbit, original.gate(i).cbit) << i;
        ASSERT_EQ(parsed.gate(i).params.size(),
                  original.gate(i).params.size());
        for (size_t p = 0; p < original.gate(i).params.size(); ++p) {
            EXPECT_DOUBLE_EQ(parsed.gate(i).params[p],
                             original.gate(i).params[p]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QasmRoundTripSweep, ::testing::Range(0, 6));

class QasmFuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(QasmFuzzSweep, MutatedProgramsNeverCrashTheParser)
{
    // Robustness: random byte-level mutations of a valid program must
    // either parse or throw xtalk::Error — never crash or hang.
    const Device device = MakePoughkeepsie();
    Rng rng(7000 + GetParam());
    const Circuit original = RandomDeviceCircuit(device, 20, rng);
    const std::string clean = ToQasm(original);
    for (int trial = 0; trial < 40; ++trial) {
        std::string mutated = clean;
        const int edits = 1 + static_cast<int>(rng.UniformInt(4));
        for (int e = 0; e < edits; ++e) {
            const size_t pos = rng.UniformInt(mutated.size());
            switch (rng.UniformInt(3)) {
              case 0:
                mutated[pos] = static_cast<char>(
                    32 + rng.UniformInt(95));  // Replace.
                break;
              case 1:
                mutated.erase(pos, 1);  // Delete.
                break;
              default:
                mutated.insert(pos, 1, static_cast<char>(
                                           32 + rng.UniformInt(95)));
                break;
            }
        }
        try {
            const Circuit parsed = ParseQasm(mutated);
            EXPECT_GT(parsed.num_qubits(), 0);
        } catch (const Error&) {
            // Rejected cleanly: fine.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QasmFuzzSweep, ::testing::Range(0, 5));

class BarrierRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(BarrierRoundTripSweep, BarrieredCircuitPreservesSerializationUnderParSched)
{
    // Property: for random circuits, the barriered executable emitted by
    // XtalkSched keeps every solver-serialized candidate pair serialized
    // when re-scheduled by the parallelism-maximizing baseline.
    const Device device = MakePoughkeepsie();
    const auto characterization = SchedulerViewCharacterization(device);
    Rng rng(5000 + GetParam());
    const Circuit circuit = RandomDeviceCircuit(device, 25, rng);
    XtalkScheduler xtalk(device, characterization);
    const Circuit barriered = xtalk.ScheduleWithBarriers(circuit);

    ParallelScheduler parallel(device);
    const ScheduledCircuit rescheduled = parallel.Schedule(barriered);
    const Topology& topo = device.topology();
    for (int i = 0; i < rescheduled.size(); ++i) {
        const Gate& gi = rescheduled.gates()[i].gate;
        if (!gi.IsTwoQubitUnitary()) {
            continue;
        }
        const EdgeId ei = topo.FindEdge(gi.qubits[0], gi.qubits[1]);
        for (const TimedGate& other : rescheduled.gates()) {
            const Gate& gj = other.gate;
            if (!gj.IsTwoQubitUnitary() ||
                !TimedGate::Overlaps(rescheduled.gates()[i], other)) {
                continue;
            }
            const EdgeId ej = topo.FindEdge(gj.qubits[0], gj.qubits[1]);
            if (ej < 0 || ej == ei) {
                continue;
            }
            EXPECT_FALSE(characterization.IsHighCrosstalk(ei, ej))
                << "barriered circuit re-overlapped edges " << ei << ", "
                << ej;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierRoundTripSweep,
                         ::testing::Range(0, 6));

/** Order-insensitive identity of a gate (kind, operands, params, cbit). */
std::string
GateSig(const Gate& gate)
{
    std::ostringstream sig;
    sig << static_cast<int>(gate.kind);
    for (QubitId q : gate.qubits) {
        sig << " q" << q;
    }
    for (double p : gate.params) {
        sig << " p" << p;
    }
    sig << " c" << gate.cbit;
    return sig.str();
}

class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineSweep, VerifiedPipelinePreservesProgramOnEveryDevice)
{
    // Property (pass-manager refactor): for random device-compliant
    // circuits on all three paper devices, the full pipeline — with
    // every inter-pass verification enabled — terminates successfully,
    // and its executable preserves the per-qubit program order and the
    // non-SWAP gate multiset of the input (trivial layout on a
    // compliant circuit routes zero SWAPs, so the check is exact).
    const auto [device_index, seed] = GetParam();
    const Device device = MakePaperDevices()[device_index];
    const auto characterization = GroundTruthCharacterization(device);
    Rng rng(9000 + 131 * device_index + seed);
    const Circuit circuit = RandomDeviceCircuit(device, 20, rng);

    CompilerOptions options;
    options.layout = LayoutPolicy::kTrivial;
    // Cycle the policies so the sweep covers every scheduler.
    const char* const kPolicies[] = {
        "serial", "parallel",
        "greedy", "xtalk"};
    options.scheduler = kPolicies[seed % 4];
    options.verify_passes = true;
    const CompileResult result =
        Compile(device, characterization, circuit, options);

    std::multiset<std::string> expected;
    std::vector<std::vector<std::string>> expected_order(
        device.num_qubits());
    for (const Gate& g : circuit.gates()) {
        if (g.IsBarrier() || g.kind == GateKind::kSwap) {
            continue;
        }
        expected.insert(GateSig(g));
        for (QubitId q : g.qubits) {
            expected_order[q].push_back(GateSig(g));
        }
    }
    std::multiset<std::string> produced;
    std::vector<std::vector<std::string>> produced_order(
        device.num_qubits());
    for (const Gate& g : result.executable.gates()) {
        if (g.IsBarrier() || g.kind == GateKind::kSwap) {
            continue;
        }
        produced.insert(GateSig(g));
        for (QubitId q : g.qubits) {
            produced_order[q].push_back(GateSig(g));
        }
    }
    EXPECT_EQ(produced, expected);
    for (int q = 0; q < device.num_qubits(); ++q) {
        EXPECT_EQ(produced_order[q], expected_order[q]) << "qubit " << q;
    }

    // Fixed inputs are deterministic: a second compile is bit-identical.
    const CompileResult again =
        Compile(device, characterization, circuit, options);
    EXPECT_EQ(ToQasm(again.executable), ToQasm(result.executable));
    EXPECT_EQ(again.schedule.ToString(), result.schedule.ToString());
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSeeds, PipelineSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Range(0, 4)));

}  // namespace
}  // namespace xtalk
