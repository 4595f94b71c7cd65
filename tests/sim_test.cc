/**
 * @file
 * Tests for the state-vector core, gate matrices, counts, and the noisy
 * trajectory simulator (noise toggles, crosstalk-conditional error rates,
 * decoherence behaviour, the cached no-event path and the pinned random
 * stream).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <sstream>

#include "characterization/rb.h"
#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "device/ibmq_devices.h"
#include "runtime/executor.h"
#include "sim/counts.h"
#include "sim/density_replay.h"
#include "sim/exact_distribution.h"
#include "sim/gate_matrices.h"
#include "sim/noisy_simulator.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"
#include "telemetry/ledger.h"
#include "telemetry/telemetry.h"
#include "workloads/adversarial.h"
#include "workloads/hidden_shift.h"
#include "workloads/qaoa.h"

namespace xtalk {
namespace {

TEST(GateMatrices, AllFixedGatesAreUnitary)
{
    for (const Matrix& m :
         {MatI(), MatX(), MatY(), MatZ(), MatH(), MatS(), MatSdg(), MatT(),
          MatTdg(), MatSX(), MatCX(), MatCZ(), MatSwap()}) {
        EXPECT_TRUE(m.IsUnitary());
    }
}

TEST(GateMatrices, ParameterizedGatesAreUnitary)
{
    for (double theta : {0.0, 0.3, 1.1, M_PI, 5.0}) {
        EXPECT_TRUE(MatRX(theta).IsUnitary());
        EXPECT_TRUE(MatRY(theta).IsUnitary());
        EXPECT_TRUE(MatRZ(theta).IsUnitary());
        EXPECT_TRUE(MatU1(theta).IsUnitary());
        EXPECT_TRUE(MatU2(theta, 0.7).IsUnitary());
        EXPECT_TRUE(MatU3(theta, 0.7, 1.9).IsUnitary());
    }
}

TEST(GateMatrices, U3SpecialCases)
{
    // u3(pi, 0, pi) = X and u2(0, pi) = H, standard IBM identities.
    EXPECT_TRUE(MatU3(M_PI, 0, M_PI).EqualsUpToPhase(MatX(), 1e-9));
    EXPECT_TRUE(MatU2(0, M_PI).EqualsUpToPhase(MatH(), 1e-9));
}

TEST(GateMatrices, SXSquaredIsX)
{
    EXPECT_TRUE((MatSX() * MatSX()).EqualsUpToPhase(MatX(), 1e-9));
}

TEST(StateVector, InitializesToZeroState)
{
    StateVector sv(3);
    EXPECT_EQ(sv.dimension(), 8u);
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);
    EXPECT_NEAR(sv.Norm(), 1.0, 1e-12);
}

TEST(StateVector, XFlipsQubit)
{
    StateVector sv(2);
    sv.Apply1Q(1, MatX());
    EXPECT_NEAR(std::abs(sv.amplitude(2)), 1.0, 1e-12);  // |10> = index 2.
    EXPECT_NEAR(sv.ProbabilityOne(1), 1.0, 1e-12);
    EXPECT_NEAR(sv.ProbabilityOne(0), 0.0, 1e-12);
}

TEST(StateVector, BellStateProbabilities)
{
    StateVector sv(2);
    Circuit bell(2);
    bell.H(0).CX(0, 1);
    sv.ApplyCircuit(bell);
    const auto probs = sv.Probabilities();
    EXPECT_NEAR(probs[0], 0.5, 1e-12);  // |00>
    EXPECT_NEAR(probs[3], 0.5, 1e-12);  // |11>
    EXPECT_NEAR(probs[1], 0.0, 1e-12);
    EXPECT_NEAR(probs[2], 0.0, 1e-12);
}

TEST(StateVector, CXControlIsFirstQubit)
{
    // CX(control=0, target=1) on |01> (qubit0=1) must give |11>.
    StateVector sv(2);
    sv.Apply1Q(0, MatX());
    Gate cx{GateKind::kCX, {0, 1}, {}, -1};
    sv.ApplyGate(cx);
    EXPECT_NEAR(std::abs(sv.amplitude(3)), 1.0, 1e-12);
}

TEST(StateVector, CXTargetUntouchedWhenControlZero)
{
    StateVector sv(2);
    Gate cx{GateKind::kCX, {0, 1}, {}, -1};
    sv.ApplyGate(cx);
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);
}

TEST(StateVector, SwapGateExchangesQubits)
{
    StateVector sv(2);
    sv.Apply1Q(0, MatX());  // |01>
    Gate swap{GateKind::kSwap, {0, 1}, {}, -1};
    sv.ApplyGate(swap);
    EXPECT_NEAR(std::abs(sv.amplitude(2)), 1.0, 1e-12);  // |10>
}

TEST(CircuitUnitary, HGateMatrix)
{
    Circuit c(1);
    c.H(0);
    EXPECT_TRUE(CircuitUnitary(c).EqualsUpToPhase(MatH(), 1e-9));
}

TEST(CircuitUnitary, SwapDecompositionMatchesSwapMatrix)
{
    Circuit c(2);
    c.CX(0, 1).CX(1, 0).CX(0, 1);
    EXPECT_TRUE(CircuitUnitary(c).EqualsUpToPhase(MatSwap(), 1e-9));
}

TEST(Counts, RecordAndQuery)
{
    Counts counts(2);
    counts.Record(0b00);
    counts.Record(0b11);
    counts.Record(0b11);
    EXPECT_EQ(counts.shots(), 3);
    EXPECT_EQ(counts.CountOf(0b11), 2);
    EXPECT_NEAR(counts.Probability(0b11), 2.0 / 3.0, 1e-12);
    const auto probs = counts.ToProbabilities();
    EXPECT_NEAR(probs[0], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(probs[3], 2.0 / 3.0, 1e-12);
}

TEST(Counts, BitsToStringOrdersHighBitFirst)
{
    EXPECT_EQ(Counts::BitsToString(0b01, 2), "01");
    EXPECT_EQ(Counts::BitsToString(0b10, 2), "10");
}

TEST(Counts, ToStringBytesAreUnchanged)
{
    // Rows fall by count; tied counts keep ascending bit order.
    Counts counts(3);
    for (const auto& [bits, shots] : std::vector<std::pair<uint64_t, int>>{
             {0b111, 2}, {0b000, 5}, {0b010, 1}, {0b101, 5}, {0b011, 2}}) {
        counts.Record(bits, shots);
    }
    EXPECT_EQ(counts.ToString(),
              "counts(15 shots)\n"
              "  000: 5\n"
              "  101: 5\n"
              "  011: 2\n"
              "  111: 2\n"
              "  010: 1\n");
    EXPECT_EQ(Counts(2).ToString(), "counts(0 shots)\n");
}

/** The std::map histogram Counts kept before its sorted rows: the
 *  reference the seeded differential holds it to. */
struct MapCounts {
    explicit MapCounts(int clbits) : num_clbits(clbits) {}

    int num_clbits;
    int shots = 0;
    std::map<uint64_t, int> rows;

    void
    Record(uint64_t bits, int n)
    {
        rows[bits] += n;
        shots += n;
    }

    std::string
    ToString() const
    {
        std::vector<std::pair<uint64_t, int>> sorted(rows.begin(),
                                                     rows.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto& a, const auto& b) {
                      return a.second > b.second;
                  });
        std::ostringstream oss;
        oss << "counts(" << shots << " shots)\n";
        for (const auto& [bits, count] : sorted) {
            oss << "  " << Counts::BitsToString(bits, num_clbits) << ": "
                << count << "\n";
        }
        return oss.str();
    }
};

std::vector<std::pair<uint64_t, int>>
Rows(const Counts& counts)
{
    return {counts.histogram().begin(), counts.histogram().end()};
}

std::vector<std::pair<uint64_t, int>>
Rows(const MapCounts& counts)
{
    return {counts.rows.begin(), counts.rows.end()};
}

TEST(Counts, MatchesAMapReferenceOnSeededStreams)
{
    // Per-shot, batched and bulk recording, Merge, CountOf,
    // ToProbabilities and ToString on seeded streams, wide and narrow:
    // few distinct outcomes (many tied counts) up to 4,096. The hash of
    // every ToString was captured with the std::map histogram.
    Rng rng(20261020);
    std::string transcript;
    for (int trial = 0; trial < 24; ++trial) {
        const int num_clbits = 1 + static_cast<int>(rng.UniformInt(16));
        const uint64_t patterns = uint64_t{1} << num_clbits;
        const uint64_t distinct = std::min<uint64_t>(
            patterns, 1 + rng.UniformInt(trial % 3 == 0 ? 4096 : 40));
        std::vector<uint64_t> support;
        for (uint64_t k = 0; k < distinct; ++k) {
            support.push_back(rng.UniformInt(patterns));
        }
        Counts per_shot(num_clbits), bulk(num_clbits);
        MapCounts per_shot_ref(num_clbits), bulk_ref(num_clbits);
        const int shots = 1 + static_cast<int>(rng.UniformInt(8192));
        std::vector<uint64_t> stream;
        for (int shot = 0; shot < shots; ++shot) {
            const uint64_t bits = support[rng.UniformInt(support.size())];
            per_shot.Record(bits);
            per_shot_ref.Record(bits, 1);
            stream.push_back(bits);
        }
        // The same shots in two batches: the second merges into rows.
        Counts batched(num_clbits);
        const size_t half = stream.size() / 2;
        batched.RecordShots(std::span(stream).first(half));
        batched.RecordShots(std::span(stream).subspan(half));
        EXPECT_EQ(Rows(batched), Rows(per_shot_ref)) << trial;
        EXPECT_EQ(batched.shots(), shots) << trial;
        for (int row = 0; row < 64; ++row) {
            const uint64_t bits = support[rng.UniformInt(support.size())];
            const int n = static_cast<int>(rng.UniformInt(50));
            bulk.Record(bits, n);
            bulk_ref.Record(bits, n);
        }
        ASSERT_EQ(Rows(per_shot), Rows(per_shot_ref)) << trial;
        ASSERT_EQ(Rows(bulk), Rows(bulk_ref)) << trial;
        EXPECT_EQ(per_shot.shots(), per_shot_ref.shots) << trial;
        EXPECT_EQ(bulk.shots(), bulk_ref.shots) << trial;

        Counts merged(trial % 2 == 0 ? num_clbits : 1);
        MapCounts merged_ref(num_clbits);
        for (const Counts* part : {&per_shot, &bulk, &per_shot}) {
            merged.Merge(*part);
        }
        for (const MapCounts* part :
             {&per_shot_ref, &bulk_ref, &per_shot_ref}) {
            for (const auto& [bits, count] : part->rows) {
                merged_ref.Record(bits, count);
            }
        }
        ASSERT_EQ(Rows(merged), Rows(merged_ref)) << trial;
        EXPECT_EQ(merged.shots(), merged_ref.shots) << trial;
        EXPECT_EQ(merged.num_clbits(), num_clbits) << trial;
        for (int probe = 0; probe < 32; ++probe) {
            const uint64_t bits = probe % 2 == 0
                                      ? support[rng.UniformInt(support.size())]
                                      : rng.UniformInt(patterns);
            const auto it = merged_ref.rows.find(bits);
            EXPECT_EQ(merged.CountOf(bits),
                      it == merged_ref.rows.end() ? 0 : it->second)
                << trial;
        }
        const std::vector<double> probabilities = merged.ToProbabilities();
        ASSERT_EQ(probabilities.size(), patterns);
        for (uint64_t bits = 0; bits < patterns; ++bits) {
            const auto it = merged_ref.rows.find(bits);
            const int count = it == merged_ref.rows.end() ? 0 : it->second;
            EXPECT_EQ(probabilities[bits],
                      static_cast<double>(count) / merged_ref.shots)
                << trial;
        }
        for (const Counts* counts : {&per_shot, &bulk, &merged}) {
            transcript += counts->ToString();
        }
        EXPECT_EQ(per_shot.ToString(), per_shot_ref.ToString()) << trial;
        EXPECT_EQ(bulk.ToString(), bulk_ref.ToString()) << trial;
        EXPECT_EQ(merged.ToString(), merged_ref.ToString()) << trial;
    }
    EXPECT_EQ(telemetry::FnvHex(transcript), "b2257ae35f3950be");
}

/** Schedule a circuit ASAP using device durations, measures in circuit
 *  order (xtalk::AsapSchedule moves them to the end). */
ScheduledCircuit
InOrderSchedule(const Circuit& circuit, const Device& device)
{
    ScheduledCircuit out(circuit.num_qubits());
    std::vector<double> ready(circuit.num_qubits(), 0.0);
    for (const Gate& g : circuit.gates()) {
        double start = 0.0;
        for (QubitId q : g.qubits) {
            start = std::max(start, ready[q]);
        }
        const double duration = device.GateDuration(g);
        out.Add(g, start, duration);
        for (QubitId q : g.qubits) {
            ready[q] = start + duration;
        }
    }
    return out;
}

TEST(NoisySimulator, NoiseFreeBellIsPerfect)
{
    const Device device = MakeLinearDevice(2, 3);
    Circuit bell(2);
    bell.H(0).CX(0, 1).MeasureAll();
    NoisySimOptions options;
    options.gate_noise = false;
    options.decoherence = false;
    options.readout_noise = false;
    NoisySimulator sim(device, options);
    const Counts counts = sim.Run(InOrderSchedule(bell, device), RunSpec{2000});
    const double p00 = counts.Probability(0b00);
    const double p11 = counts.Probability(0b11);
    EXPECT_NEAR(p00 + p11, 1.0, 1e-12);
    EXPECT_NEAR(p00, 0.5, 0.05);
}

TEST(NoisySimulator, ReadoutNoiseFlipsBits)
{
    const Device device = MakeLinearDevice(2, 3);
    Circuit idle(2);
    idle.MeasureAll();
    NoisySimOptions options;
    options.gate_noise = false;
    options.decoherence = false;
    options.readout_noise = true;
    NoisySimulator sim(device, options);
    const Counts counts = sim.Run(InOrderSchedule(idle, device), RunSpec{4000});
    // Expect roughly the calibrated readout error rate of flips per qubit.
    const double p_not00 = 1.0 - counts.Probability(0b00);
    const double expected =
        1.0 - (1.0 - device.ReadoutError(0)) * (1.0 - device.ReadoutError(1));
    EXPECT_NEAR(p_not00, expected, 0.03);
}

TEST(NoisySimulator, DecoherenceDegradesIdlingExcitedState)
{
    const Device device = MakeLinearDevice(2, 3);
    // Excite qubit 0 then idle it for ~T1 before measuring.
    Circuit c(2);
    c.X(0);
    c.Measure(0, 0);
    ScheduledCircuit schedule(2);
    const double t1_ns = device.T1us(0) * 1000.0;
    schedule.Add(Gate{GateKind::kX, {0}, {}, -1}, 0.0,
                 device.SqDuration(0));
    schedule.Add(Gate{GateKind::kMeasure, {0}, {}, 0}, t1_ns, 0.0);
    NoisySimOptions options;
    options.gate_noise = false;
    options.readout_noise = false;
    options.decoherence = true;
    NoisySimulator sim(device, options);
    const Counts counts = sim.Run(schedule, RunSpec{4000});
    // After idling ~T1, survival ~ exp(-1) ~ 0.37.
    EXPECT_NEAR(counts.Probability(0b1), std::exp(-1.0), 0.05);
}

TEST(NoisySimulator, EffectiveErrorUsesConditionalRateWhenOverlapping)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    // CX10,15 and CX11,12 are a high-crosstalk pair on Poughkeepsie.
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    ASSERT_TRUE(device.IsHighCrosstalkPair(victim, aggressor));

    // The errors the trajectory engine runs for the pair's two gates,
    // the victim's first, with the aggressor starting at @p start_ns.
    auto errors = [&](double start_ns) {
        ScheduledCircuit schedule(20);
        schedule.Add(Gate{GateKind::kCX, {10, 15}, {}, -1}, 0.0, 400.0);
        schedule.Add(Gate{GateKind::kCX, {11, 12}, {}, -1}, start_ns, 400.0);
        const RunPlan plan = BuildRunPlan(device, {}, schedule);
        return std::make_pair(plan.ops[0].error, plan.ops[1].error);
    };
    const double overlapped_err = errors(0.0).first;
    const double serial_err = errors(500.0).first;
    EXPECT_GT(overlapped_err, 3.0 * serial_err);
    EXPECT_NEAR(serial_err, device.CxError(victim), 1e-12);
    EXPECT_NEAR(overlapped_err,
                device.ConditionalCxError(victim, aggressor), 1e-12);
    // Abutting gates do not overlap: both keep their independent rates.
    const auto [abutting_victim, abutting_aggressor] = errors(400.0);
    EXPECT_EQ(abutting_victim, device.CxError(victim));
    EXPECT_EQ(abutting_aggressor, device.CxError(aggressor));
}

TEST(NoisySimulator, IdealProbabilitiesMatchAnalyticBell)
{
    const Device device = MakeLinearDevice(2, 3);
    Circuit bell(2);
    bell.H(0).CX(0, 1).MeasureAll();
    NoisySimulator sim(device);
    const auto probs = sim.IdealProbabilities(InOrderSchedule(bell, device));
    ASSERT_EQ(probs.size(), 4u);
    EXPECT_NEAR(probs[0], 0.5, 1e-12);
    EXPECT_NEAR(probs[3], 0.5, 1e-12);
}

TEST(NoisySimulator, DeterministicForFixedSeed)
{
    const Device device = MakeLinearDevice(3, 3);
    Circuit c(3);
    c.H(0).CX(0, 1).CX(1, 2).MeasureAll();
    const auto schedule = InOrderSchedule(c, device);
    NoisySimOptions options;
    options.seed = 42;
    Counts a = NoisySimulator(device, options).Run(schedule, RunSpec{500});
    Counts b = NoisySimulator(device, options).Run(schedule, RunSpec{500});
    EXPECT_EQ(a.histogram(), b.histogram());
}

TEST(NoisySimulator, RejectsClbitsBeyondTheCountsWord)
{
    // Counts pack a shot into 64 bits, so clbit 64 would alias clbit 0.
    const Device device = MakeLinearDevice(2, 3);
    NoisySimOptions noiseless;
    noiseless.gate_noise = false;
    noiseless.decoherence = false;
    noiseless.readout_noise = false;
    for (int cbit : {63, 64, 100}) {
        ScheduledCircuit schedule(2);
        schedule.Add(Gate{GateKind::kX, {0}, {}, -1}, 0.0,
                     device.SqDuration(0));
        schedule.Add(Gate{GateKind::kMeasure, {0}, {}, cbit}, 100.0, 0.0);
        NoisySimulator trajectory(device, noiseless);
        StabilizerSimulator stabilizer(device, noiseless);
        if (cbit < 64) {
            const uint64_t bit = uint64_t{1} << cbit;
            EXPECT_EQ(trajectory.Run(schedule, RunSpec{8}).CountOf(bit), 8);
            EXPECT_EQ(stabilizer.Run(schedule, RunSpec{8}).CountOf(bit), 8);
        } else {
            EXPECT_THROW(trajectory.Run(schedule, RunSpec{8}), Error);
            EXPECT_THROW(stabilizer.Run(schedule, RunSpec{8}), Error);
        }
    }
}

TEST(NoisySimulator, NoEventShotsSkipEveryGate)
{
    // With every noise source off and all measurements at the end, the
    // cached path applies each gate once and no shot applies one again.
    const Device device = MakeLinearDevice(3, 3);
    NoisySimOptions noiseless;
    noiseless.gate_noise = false;
    noiseless.decoherence = false;
    noiseless.readout_noise = false;
    telemetry::Counter& executed =
        telemetry::GetCounter("sim.statevector.ops_executed");
    telemetry::Counter& skipped =
        telemetry::GetCounter("sim.statevector.ops_skipped");
    constexpr uint64_t kGates = 4, kMeasures = 3, kShots = 300;
    auto run = [&](const Circuit& gates) {
        ScheduledCircuit schedule = InOrderSchedule(gates, device);
        const double end = schedule.TotalDuration();
        for (int q = 0; q < 3; ++q) {
            schedule.Add(Gate{GateKind::kMeasure, {q}, {}, q}, end,
                         device.ReadoutDuration(q));
        }
        telemetry::SetEnabled(true);
        executed.Reset();
        skipped.Reset();
        const Counts counts = NoisySimulator(device, noiseless)
                                  .Run(schedule,
                                       RunSpec{static_cast<int>(kShots)});
        telemetry::SetEnabled(false);
        return counts;
    };

    // A deterministic outcome: no shot has an event.
    Circuit basis(3);
    basis.X(0).CX(0, 1).X(2).CX(1, 2);
    EXPECT_EQ(run(basis).CountOf(0b011), static_cast<int>(kShots));
    EXPECT_EQ(executed.value(), kGates + kMeasures);
    EXPECT_EQ(skipped.value(), (kGates + kMeasures) * kShots);

    // GHZ: the cached path reads qubit 0 as 0, so about half the shots
    // have an event at the first measurement and resume there, after
    // every gate.
    Circuit ghz(3);
    ghz.H(0).CX(0, 1).CX(1, 2).X(2);
    const Counts counts = run(ghz);
    EXPECT_EQ(counts.CountOf(0b100) + counts.CountOf(0b011),
              static_cast<int>(kShots));
    EXPECT_GE(skipped.value(), kGates * kShots);
    EXPECT_EQ((executed.value() - kGates - kMeasures) % kMeasures, 0u);
    EXPECT_GT(executed.value(), kGates + kMeasures);
}

TEST(NoisySimulator, IndependentQubitGroupsGetOneRegisterEach)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    RbConfig rb;
    rb.seed = 77;
    const RbRunner runner(device, rb);
    telemetry::Counter& registers =
        telemetry::GetCounter("sim.statevector.registers");
    auto registers_of = [&](const ScheduledCircuit& schedule) {
        telemetry::SetEnabled(true);
        registers.Reset();
        NoisySimulator(device).Run(schedule, RunSpec{16});
        telemetry::SetEnabled(false);
        return registers.value();
    };

    Rng rng(5);
    const ScheduledCircuit srb =
        runner.BuildSrbSchedule({victim, aggressor}, 3, rng);
    EXPECT_EQ(registers_of(srb), 2u);

    // One CX on the coupler between them joins the two groups.
    ScheduledCircuit joined = srb;
    joined.Add(Gate{GateKind::kCX, {10, 11}, {}, -1}, srb.TotalDuration(),
               device.CxDuration(topo.FindEdge(10, 11)));
    EXPECT_EQ(registers_of(joined), 1u);

    EXPECT_EQ(registers_of(runner.BuildSrbSchedule({victim}, 3, rng)), 1u);
}

/** One seeded run whose Counts table is pinned by hash. */
struct PinnedRun {
    std::string name;
    const Device* device;
    ScheduledCircuit schedule;
    NoisySimOptions noise;
    runtime::SimBackend backend = runtime::SimBackend::kStatevector;
    int shots = 256;
    int max_chunks = 1;
    const char* counts_hash;
};

/** A mid-circuit measurement of qubit 0, more gates on it, then
 *  terminal measurements. */
Circuit
MidCircuitMeasureCircuit()
{
    Circuit c(3);
    c.H(0).CX(0, 1).Measure(0, 0);
    c.X(0).CX(0, 1).H(2).CX(1, 2);
    c.Measure(0, 1).Measure(1, 2).Measure(2, 3);
    return c;
}

std::vector<PinnedRun>
PinnedRuns(const Device& pough, const Device& linear)
{
    const Topology& topo = pough.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    RbConfig rb;
    rb.seed = 77;
    const RbRunner runner(pough, rb);
    auto srb = [&](std::vector<EdgeId> edges, int length, uint64_t seed) {
        Rng rng(seed);
        return runner.BuildSrbSchedule(edges, length, rng);
    };
    auto adversarial = [&](AdversarialFamily family) {
        AdversarialOptions options;
        options.family = family;
        options.max_qubits = 5;
        options.intensity = 2;
        options.seed = 2020;
        return InOrderSchedule(BuildAdversarialCircuit(pough, options), pough);
    };
    const ScheduledCircuit qaoa =
        InOrderSchedule(BuildQaoaCircuit(pough, {0, 1, 2, 3}), pough);
    const ScheduledCircuit shift = InOrderSchedule(
        BuildHiddenShiftCircuit(pough, {10, 15, 11, 12}), pough);
    HiddenShiftOptions redundant_options;
    redundant_options.redundant_cnots = true;
    const ScheduledCircuit shift_redundant = InOrderSchedule(
        BuildHiddenShiftCircuit(pough, {10, 15, 11, 12}, redundant_options),
        pough);
    // Twelve qubits: a 64 KiB state, so the run needs more checkpoints
    // than a 1 MiB budget holds.
    const ScheduledCircuit wide = InOrderSchedule(
        BuildQaoaCircuit(pough, {0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 11},
                         QaoaOptions{2, 3}),
        pough);
    // Twelve qubits on six disjoint couplers: as one register, a 64 KiB
    // state past the checkpoint budget; split, six 4-amplitude ones.
    const std::vector<EdgeId> six_couplers{
        topo.FindEdge(0, 1),  topo.FindEdge(2, 3),   topo.FindEdge(5, 6),
        topo.FindEdge(7, 8),  topo.FindEdge(10, 15), topo.FindEdge(11, 12)};
    const ScheduledCircuit mid =
        InOrderSchedule(MidCircuitMeasureCircuit(), linear);
    // Idling 50 T1 makes damping certain: every shot jumps on qubit 0,
    // so the cached path must end there instead of taking the
    // zero-probability no-jump branch.
    ScheduledCircuit decayed(3);
    decayed.Add(Gate{GateKind::kX, {0}, {}, -1}, 0.0, linear.SqDuration(0));
    decayed.Add(Gate{GateKind::kH, {1}, {}, -1}, 0.0, linear.SqDuration(1));
    decayed.Add(Gate{GateKind::kCX, {1, 2}, {}, -1}, linear.SqDuration(1),
                linear.CxDuration(linear.topology().FindEdge(1, 2)));
    const double idle_ns = 50.0 * 1000.0 *
                           std::max({linear.T1us(0), linear.T1us(1),
                                     linear.T1us(2)});
    for (int q = 0; q < 3; ++q) {
        decayed.Add(Gate{GateKind::kMeasure, {q}, {}, q}, idle_ns,
                    linear.ReadoutDuration(q));
    }

    NoisySimOptions full;
    full.seed = 1234;
    auto without = [&](bool NoisySimOptions::*toggle) {
        NoisySimOptions options = full;
        options.*toggle = false;
        return options;
    };
    NoisySimOptions noiseless = full;
    noiseless.gate_noise = false;
    noiseless.crosstalk = false;
    noiseless.decoherence = false;
    noiseless.readout_noise = false;
    const auto stabilizer = runtime::SimBackend::kStabilizer;

    return {
        {"srb-1coupler-len1", &pough, srb({victim}, 1, 3), full, {}, 256, 1,
         "923ae7f40595d49e"},
        {"srb-1coupler-len30", &pough, srb({victim}, 30, 4), full, {}, 256, 1,
         "1bd843a4388f23ab"},
        {"srb-2couplers-len1", &pough, srb({victim, aggressor}, 1, 5), full,
         {}, 256, 1, "b7b7cd620e206848"},
        {"srb-2couplers-len30", &pough, srb({victim, aggressor}, 30, 6), full,
         {}, 256, 1, "15a6ec5f4b6d1afd"},
        {"qaoa", &pough, qaoa, full, {}, 512, 1, "b596bda7f6757886"},
        {"qaoa-4-chunks", &pough, qaoa, full, {}, 512, 4, "4f1f6ff58fbc9127"},
        {"hidden-shift", &pough, shift, full, {}, 512, 1, "75dca129ab1fbf27"},
        {"hidden-shift-redundant", &pough, shift_redundant, full, {}, 512, 1,
         "15c21327838d1327"},
        {"adversarial-parallel-cx-mesh", &pough,
         adversarial(AdversarialFamily::kParallelCxMesh), full, {}, 256, 1,
         "e4e15d961667de60"},
        {"adversarial-depth-chain", &pough,
         adversarial(AdversarialFamily::kDepthChain), full, {}, 256, 1, "93ee44699a054593"},
        {"adversarial-readout-heavy", &pough,
         adversarial(AdversarialFamily::kReadoutHeavy), full, {}, 256, 1, "6d22d0b78c070b04"},
        {"adversarial-clifford-only", &pough,
         adversarial(AdversarialFamily::kCliffordOnly), full, {}, 256, 1, "8ab7b20675d49160"},
        {"mid-circuit-measure", &linear, mid, full, {}, 512, 1, "d626eb6d142ca371"},
        {"twelve-qubits", &pough, wide, full, {}, 48, 1, "4530abb553444d7d"},
        {"srb-6couplers-len10", &pough, srb(six_couplers, 10, 7), full, {},
         64, 1, "1a1cc6d673ca6686"},
        {"decay-to-certainty", &linear, decayed, full, {}, 256, 1,
         "5caf7e21aa0d1115"},
        {"no-gate-noise", &pough, shift_redundant,
         without(&NoisySimOptions::gate_noise), {}, 512, 1, "14c3ab5705395623"},
        {"no-crosstalk", &pough, shift_redundant,
         without(&NoisySimOptions::crosstalk), {}, 512, 1, "2f81c694bc7b7417"},
        {"no-decoherence", &pough, shift_redundant,
         without(&NoisySimOptions::decoherence), {}, 512, 1, "b5ea2a7e6cbf4fdb"},
        {"no-readout-noise", &pough, shift_redundant,
         without(&NoisySimOptions::readout_noise), {}, 512, 1, "74768fd9da52a668"},
        {"noiseless", &pough, qaoa, noiseless, {}, 512, 1, "2500623a34bb5865"},
        {"stabilizer-srb-2couplers-len30", &pough,
         srb({victim, aggressor}, 30, 6), full, stabilizer, 256, 1, "fef7506bca3b1a9d"},
        {"stabilizer-hidden-shift", &pough, shift_redundant, full, stabilizer,
         512, 1, "abf0ec5021bd3cb3"},
        {"stabilizer-clifford-only", &pough,
         adversarial(AdversarialFamily::kCliffordOnly), full, stabilizer, 256,
         1, "86df6f4f9ae5bf20"},
        {"stabilizer-mid-circuit-measure", &linear, mid, full, stabilizer, 512,
         1, "03ef049133369e15"},
    };
}

TEST(NoisySimulator, PinnedCountsForSeededRuns)
{
    const Device pough = MakePoughkeepsie();
    const Device linear = MakeLinearDevice(3, 3);
    for (const PinnedRun& run : PinnedRuns(pough, linear)) {
        runtime::Executor executor(*run.device);
        runtime::ExecutionJob job;
        job.schedule = run.schedule;
        job.spec = RunSpec{run.shots, std::nullopt, run.max_chunks};
        job.seed = run.noise.seed;
        job.backend = run.backend;
        job.noise = run.noise;
        const Counts counts = executor.Run(std::move(job)).counts;
        EXPECT_EQ(telemetry::FnvHex(counts.ToString()), run.counts_hash)
            << run.name;
    }
}

/** Noise settings the exact engine must honour like the replay does. */
std::vector<std::pair<std::string, NoisySimOptions>>
NoiseToggles()
{
    std::vector<std::pair<std::string, NoisySimOptions>> toggles{
        {"full", {}}};
    const std::pair<const char*, bool NoisySimOptions::*> each[] = {
        {"no-gate-noise", &NoisySimOptions::gate_noise},
        {"no-crosstalk", &NoisySimOptions::crosstalk},
        {"no-decoherence", &NoisySimOptions::decoherence},
        {"no-readout-noise", &NoisySimOptions::readout_noise}};
    NoisySimOptions noiseless;
    for (const auto& [name, toggle] : each) {
        NoisySimOptions options;
        options.*toggle = false;
        noiseless.*toggle = false;
        toggles.emplace_back(name, options);
    }
    toggles.emplace_back("noiseless", noiseless);
    return toggles;
}

/** Largest elementwise gap between two distributions over bit patterns
 *  (a shorter one is padded with zeros). */
double
MaxAbsDifference(const std::vector<double>& a, const std::vector<double>& b)
{
    double gap = 0.0;
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        gap = std::max(gap, std::abs((i < a.size() ? a[i] : 0.0) -
                                     (i < b.size() ? b[i] : 0.0)));
    }
    return gap;
}

std::vector<double>
ExactProbabilities(const Device& device, const ScheduledCircuit& schedule,
                   const NoisySimOptions& options = {})
{
    return ExactDistribution(BuildRunPlan(device, options, schedule))
        .Probabilities();
}

/** One seeded Executor job's Counts on @p backend. */
Counts
RunJob(const Device& device, const ScheduledCircuit& schedule,
       runtime::SimBackend backend, int shots, int max_chunks,
       uint64_t seed, int threads = 0)
{
    runtime::ExecutorOptions options;
    options.num_threads = threads;
    runtime::Executor executor(device, options);
    runtime::ExecutionJob job;
    job.schedule = schedule;
    job.spec = RunSpec{shots, std::nullopt, max_chunks};
    job.seed = seed;
    job.backend = backend;
    return executor.Run(std::move(job)).counts;
}

TEST(ExactBackend, IsTheDefault)
{
    EXPECT_EQ(runtime::ExecutionJob{}.backend, runtime::SimBackend::kExact);
}

TEST(ExactBackend, MatchesDensityReplayOnPinnedSchedules)
{
    // Every terminal-measure schedule of the pinned runs, once each
    // (their stabilizer, chunked and toggle rows repeat a schedule),
    // under every noise toggle. The replay holds at most 10 qubits, so
    // the two twelve-qubit schedules are left out.
    const Device pough = MakePoughkeepsie();
    const Device linear = MakeLinearDevice(3, 3);
    int compared = 0;
    for (const PinnedRun& run : PinnedRuns(pough, linear)) {
        const RunPlan plan = BuildRunPlan(*run.device, {}, run.schedule);
        if (run.backend != runtime::SimBackend::kStatevector ||
            run.max_chunks != 1 || !run.noise.gate_noise ||
            !run.noise.crosstalk || !run.noise.decoherence ||
            !run.noise.readout_noise || !ExactRegisterWidth(plan) ||
            plan.width > 10) {
            continue;
        }
        for (const auto& [toggle, options] : NoiseToggles()) {
            const DensityReplayResult replay =
                ReplayScheduleDensity(*run.device, run.schedule, options);
            EXPECT_LE(MaxAbsDifference(
                          ExactProbabilities(*run.device, run.schedule,
                                             options),
                          replay.probabilities),
                      1e-12)
                << run.name << " " << toggle;
        }
        ++compared;
    }
    EXPECT_EQ(compared, 12);
}

TEST(ExactBackend, SampledCountsFallWithinTheDifftestTvdBound)
{
    const Device pough = MakePoughkeepsie();
    const Device linear = MakeLinearDevice(3, 3);
    constexpr int kShots = 4096;
    for (const PinnedRun& run : PinnedRuns(pough, linear)) {
        if (run.name != "qaoa" && run.name != "hidden-shift-redundant" &&
            run.name != "adversarial-parallel-cx-mesh" &&
            run.name != "srb-2couplers-len30" &&
            run.name != "decay-to-certainty") {
            continue;
        }
        const std::vector<double> exact =
            ReplayScheduleDensity(*run.device, run.schedule).probabilities;
        // The oracle's bound: base slack plus the multinomial term.
        size_t support = 0;
        for (double p : exact) {
            support += p > 1e-9 ? 1 : 0;
        }
        const double bound =
            0.03 + std::sqrt(static_cast<double>(
                                 std::max<size_t>(support, 2)) /
                             kShots);
        const Counts counts =
            RunJob(*run.device, run.schedule, runtime::SimBackend::kExact,
                   kShots, 8, 2024);
        EXPECT_EQ(counts.shots(), kShots);
        EXPECT_LE(TotalVariationDistance(counts.ToProbabilities(), exact),
                  bound)
            << run.name;
    }
}

TEST(ExactBackend, CountsAreIdenticalAcrossThreadCounts)
{
    const Device pough = MakePoughkeepsie();
    const ScheduledCircuit qaoa =
        InOrderSchedule(BuildQaoaCircuit(pough, {0, 1, 2, 3}), pough);
    const ScheduledCircuit shift = InOrderSchedule(
        BuildHiddenShiftCircuit(pough, {10, 15, 11, 12}), pough);
    auto batch_at = [&](int threads) {
        runtime::ExecutorOptions options;
        options.num_threads = threads;
        runtime::Executor executor(pough, options);
        runtime::ExecutionRequest request;
        for (const ScheduledCircuit* schedule : {&qaoa, &shift, &qaoa}) {
            runtime::ExecutionJob job;
            job.schedule = *schedule;
            job.spec = RunSpec{2048, std::nullopt, 8};
            job.seed = 77 + request.jobs.size();
            request.jobs.push_back(std::move(job));
        }
        std::vector<std::vector<Counts::Row>> histograms;
        for (const runtime::ExecutionResult& result :
             executor.Submit(request)) {
            EXPECT_EQ(result.chunks, 8);
            histograms.push_back(result.counts.histogram());
        }
        return histograms;
    };
    const auto at1 = batch_at(1);
    EXPECT_EQ(at1, batch_at(2));
    EXPECT_EQ(at1, batch_at(8));
    // Two jobs of one schedule with different seeds draw different
    // streams.
    EXPECT_NE(at1[0], at1[2]);
}

TEST(ExactBackend, MidCircuitMeasureRunsTrajectories)
{
    const Device linear = MakeLinearDevice(3, 3);
    const ScheduledCircuit mid =
        InOrderSchedule(MidCircuitMeasureCircuit(), linear);
    telemetry::Counter& fallbacks =
        telemetry::GetCounter("sim.exact.fallbacks.mid_circuit_measure");
    telemetry::SetEnabled(true);
    fallbacks.Reset();
    const Counts exact =
        RunJob(linear, mid, runtime::SimBackend::kExact, 512, 4, 1234);
    EXPECT_EQ(fallbacks.value(), 1u);
    telemetry::SetEnabled(false);
    EXPECT_EQ(exact.histogram(),
              RunJob(linear, mid, runtime::SimBackend::kStatevector, 512, 4,
                     1234)
                  .histogram());
}

TEST(ExactBackend, CostTestFailureRunsTrajectories)
{
    const Device pough = MakePoughkeepsie();
    // Four qubits in one register: 2^4 > 8 shots.
    const ScheduledCircuit qaoa =
        InOrderSchedule(BuildQaoaCircuit(pough, {0, 1, 2, 3}), pough);
    // Twelve qubits in one register: past the 10-qubit cap at any
    // shot count.
    const ScheduledCircuit wide = InOrderSchedule(
        BuildQaoaCircuit(pough, {0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 11},
                         QaoaOptions{2, 3}),
        pough);
    telemetry::Counter& fallbacks =
        telemetry::GetCounter("sim.exact.fallbacks.cost");
    telemetry::Counter& runs = telemetry::GetCounter("sim.exact.runs");
    for (const auto& [schedule, shots] :
         {std::pair{&qaoa, 8}, std::pair{&wide, 64}}) {
        telemetry::SetEnabled(true);
        fallbacks.Reset();
        runs.Reset();
        const Counts exact = RunJob(pough, *schedule,
                                    runtime::SimBackend::kExact, shots, 1, 9);
        EXPECT_EQ(fallbacks.value(), 1u);
        EXPECT_EQ(runs.value(), 0u);
        telemetry::SetEnabled(false);
        EXPECT_EQ(exact.histogram(),
                  RunJob(pough, *schedule, runtime::SimBackend::kStatevector,
                         shots, 1, 9)
                      .histogram());
    }
    // Sixteen shots pass the test for the four-qubit register.
    telemetry::SetEnabled(true);
    runs.Reset();
    RunJob(pough, qaoa, runtime::SimBackend::kExact, 16, 1, 9);
    EXPECT_EQ(runs.value(), 1u);
    telemetry::SetEnabled(false);
}

TEST(ExactBackend, ManyRegistersDrawOncePerSamplingGroup)
{
    // Fourteen one-qubit registers: 2^14 joint outcomes, past one
    // sampling group's 4,096, so a shot draws once per group. Each
    // classical bit must still follow its exact marginal.
    const Device pough = MakePoughkeepsie();
    Circuit circuit(14);
    for (int q = 0; q < 14; ++q) {
        circuit.H(q).RY(q, 0.1 * q);
    }
    circuit.MeasureAll();
    const ScheduledCircuit schedule = InOrderSchedule(circuit, pough);
    const ExactDistribution exact(BuildRunPlan(pough, {}, schedule));
    EXPECT_EQ(exact.registers(), 14);
    EXPECT_EQ(exact.width(), 1);
    const std::vector<double> joint = exact.Probabilities();
    constexpr int kShots = 4096;
    const Counts counts =
        RunJob(pough, schedule, runtime::SimBackend::kExact, kShots, 4, 31);
    EXPECT_EQ(counts.shots(), kShots);
    for (int bit = 0; bit < 14; ++bit) {
        double p = 0.0;
        for (size_t pattern = 0; pattern < joint.size(); ++pattern) {
            p += (pattern >> bit) & 1 ? joint[pattern] : 0.0;
        }
        int ones = 0;
        for (const auto& [bits, count] : counts.histogram()) {
            ones += (bits >> bit) & 1 ? count : 0;
        }
        EXPECT_NEAR(static_cast<double>(ones) / kShots, p,
                    5.0 * std::sqrt(p * (1.0 - p) / kShots) + 1e-9)
            << "bit " << bit;
    }
    EXPECT_EQ(counts.histogram(),
              RunJob(pough, schedule, runtime::SimBackend::kExact, kShots,
                     4, 31, 1)
                  .histogram());
}

/** Probes of @p bins on which its Pick differs from std::upper_bound
 *  over its CDF (clamped to the last outcome): every bin edge and one
 *  ulp either side, every CDF value and its neighbours, and 10^5
 *  seeded uniforms. */
int
BinTableMismatches(const CdfBins& bins, uint64_t seed)
{
    const std::vector<double>& cdf = bins.cdf();
    std::vector<double> probes;
    for (size_t j = 0; j < bins.bins(); ++j) {
        const double edge =
            static_cast<double>(j) / static_cast<double>(bins.bins());
        probes.insert(probes.end(), {edge, std::nextafter(edge, 0.0),
                                     std::nextafter(edge, 1.0)});
    }
    for (double c : cdf) {
        probes.insert(probes.end(), {c, std::nextafter(c, 0.0),
                                     std::nextafter(c, 1.0)});
    }
    probes.push_back(std::nextafter(1.0, 0.0));
    Rng rng(seed);
    for (int k = 0; k < 100000; ++k) {
        probes.push_back(rng.Uniform());
    }
    int mismatches = 0;
    for (double u : probes) {
        if (!(u >= 0.0 && u < 1.0)) {
            continue;
        }
        const size_t expected = std::min<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
            cdf.size() - 1);
        if (bins.Pick(u) != expected) {
            ADD_FAILURE() << "u = " << u << ": picked " << bins.Pick(u)
                          << ", upper_bound " << expected;
            if (++mismatches >= 10) {
                break;
            }
        }
    }
    return mismatches;
}

TEST(ExactBackend, BinTableMatchesUpperBound)
{
    const Device pough = MakePoughkeepsie();
    const Device linear = MakeLinearDevice(3, 3);
    int groups = 0;
    for (const PinnedRun& run : PinnedRuns(pough, linear)) {
        const RunPlan plan =
            BuildRunPlan(*run.device, run.noise, run.schedule);
        const std::optional<int> width = ExactRegisterWidth(plan);
        if (!width || *width > kMaxExactRegisterQubits) {
            continue;
        }
        const ExactDistribution exact(plan);
        for (size_t g = 0; g < exact.groups(); ++g) {
            const CdfBins& bins = exact.sampler(g);
            EXPECT_GE(bins.bins(), 4 * bins.cdf().size()) << run.name;
            EXPECT_EQ(bins.bins() & (bins.bins() - 1), 0u) << run.name;
            EXPECT_EQ(BinTableMismatches(bins, 7 + groups), 0) << run.name;
            ++groups;
        }
    }
    EXPECT_GE(groups, 20);

    // Twelve one-qubit registers: one group of 2^12 joint outcomes.
    Circuit circuit(12);
    for (int q = 0; q < 12; ++q) {
        circuit.H(q).RY(q, 0.05 * q);
    }
    circuit.MeasureAll();
    const ExactDistribution wide(
        BuildRunPlan(pough, {}, InOrderSchedule(circuit, pough)));
    ASSERT_EQ(wide.groups(), 1u);
    ASSERT_EQ(wide.sampler(0).cdf().size(), 4096u);
    EXPECT_EQ(BinTableMismatches(wide.sampler(0), 4096), 0);

    // Edge cases: repeated CDF values, a tiny outcome inside one bin,
    // CDF values on bin edges and a total that rounding left below 1.
    for (const std::vector<double>& cdf : std::vector<std::vector<double>>{
             {1.0},
             {0.25, 0.25, 0.5, 0.75, 1.0 - 0x1p-40},
             {1e-300, 0.125, 0.125 + 1e-17, 0.3, 0.9999999999999999},
             {0.0625, 0.0625, 0.0625, 0.5, 1.0}}) {
        const CdfBins bins(cdf);
        EXPECT_EQ(BinTableMismatches(bins, cdf.size()), 0);
    }
}

TEST(ExactBackend, PinnedCountsForSeededRuns)
{
    // Counts hashes of exact-path jobs: the distribution, the register
    // order of the draws and the per-chunk streams all feed them.
    const Device pough = MakePoughkeepsie();
    const Device linear = MakeLinearDevice(3, 3);
    const std::map<std::string, const char*> pinned{
        {"qaoa", "4949147103a3eeac"},
        {"qaoa-4-chunks", "9b47d247cfd04119"},
        {"hidden-shift-redundant", "bdc8ffe71e9ef6d5"},
        {"srb-6couplers-len10", "9f0062938a04a452"},
        {"decay-to-certainty", "643a086fa7e9b117"},
    };
    int checked = 0;
    for (const PinnedRun& run : PinnedRuns(pough, linear)) {
        const auto it = pinned.find(run.name);
        if (it == pinned.end()) {
            continue;
        }
        const Counts counts =
            RunJob(*run.device, run.schedule, runtime::SimBackend::kExact,
                   run.shots, run.max_chunks, run.noise.seed);
        EXPECT_EQ(telemetry::FnvHex(counts.ToString()), it->second)
            << run.name;
        ++checked;
    }
    EXPECT_EQ(checked, 5);
}

}  // namespace
}  // namespace xtalk
