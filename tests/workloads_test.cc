/**
 * @file
 * Tests for the benchmark workload generators: SWAP tomography circuits,
 * QAOA ansatz, Hidden Shift, and supremacy-style random circuits.
 */
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "device/ibmq_devices.h"
#include "sim/gate_matrices.h"
#include "sim/statevector.h"
#include "workloads/hidden_shift.h"
#include "workloads/qaoa.h"
#include "workloads/supremacy.h"
#include "workloads/swap_circuits.h"

namespace xtalk {
namespace {

TEST(SwapBenchmark, ProducesBellStateNoiselessly)
{
    const Device device = MakePoughkeepsie();
    const SwapBenchmark bench = BuildSwapBenchmark(device, 0, 13);
    StateVector sv(device.num_qubits());
    sv.ApplyCircuit(bench.circuit);
    // Probability mass must be 1/2 on each of |00> and |11> of the Bell
    // pair, with all other qubits back in |0>.
    const auto probs = sv.Probabilities();
    const size_t mask_l = size_t{1} << bench.bell_left;
    const size_t mask_r = size_t{1} << bench.bell_right;
    EXPECT_NEAR(probs[0], 0.5, 1e-9);
    EXPECT_NEAR(probs[mask_l | mask_r], 0.5, 1e-9);
}

TEST(SwapBenchmark, PaperPathZeroToThirteen)
{
    const Device device = MakePoughkeepsie();
    const SwapBenchmark bench = BuildSwapBenchmark(device, 0, 13);
    EXPECT_EQ(bench.path_hops, 5);
    EXPECT_EQ(bench.bell_left, 10);
    EXPECT_EQ(bench.bell_right, 11);
    // 4 SWAPs -> 12 CX, plus the final CNOT.
    EXPECT_EQ(bench.circuit.CountKind(GateKind::kCX), 13);
    EXPECT_EQ(bench.circuit.CountKind(GateKind::kH), 1);
}

TEST(SwapBenchmark, ConflictDetectionMatchesGroundTruth)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    // Path 16 -> 12 crosses the (CX10,15 | CX11,12)-adjacent pair
    // (CX15,10 runs concurrently with CX12,11).
    const SwapBenchmark conflicted = BuildSwapBenchmark(device, 15, 12);
    EXPECT_TRUE(HasCrosstalkConflict(device, conflicted, characterization));
    // Path 0 -> 3 along the top row is crosstalk-free.
    const SwapBenchmark clean = BuildSwapBenchmark(device, 0, 3);
    EXPECT_FALSE(HasCrosstalkConflict(device, clean, characterization));
}

TEST(SwapBenchmark, FindConflictingPairsNonEmptyOnAllPaperDevices)
{
    for (const Device& device : MakePaperDevices()) {
        const auto characterization = GroundTruthCharacterization(device);
        const auto pairs =
            FindConflictingSwapPairs(device, characterization, 0);
        EXPECT_GE(pairs.size(), 5u) << device.name();
    }
}

TEST(Qaoa, GateBudgetMatchesPaper)
{
    // Paper: 4 qubits, ~43 gates, 9 two-qubit gates.
    const Device device = MakePoughkeepsie();
    const Circuit c = BuildQaoaCircuit(device, {15, 10, 11, 12});
    EXPECT_EQ(c.CountTwoQubitGates(), 9);
    const int total_ops = c.size() - c.CountKind(GateKind::kMeasure);
    EXPECT_GE(total_ops, 35);
    EXPECT_LE(total_ops, 50);
}

TEST(Qaoa, RequiresConnectedChain)
{
    const Device device = MakePoughkeepsie();
    EXPECT_THROW(BuildQaoaCircuit(device, {0, 13, 1, 2}), Error);
}

TEST(Qaoa, DeterministicForFixedSeed)
{
    const Device device = MakePoughkeepsie();
    const Circuit a = BuildQaoaCircuit(device, {15, 10, 11, 12});
    const Circuit b = BuildQaoaCircuit(device, {15, 10, 11, 12});
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.gate(i), b.gate(i)) << "gate " << i;
    }
}

class HiddenShiftAllShifts : public ::testing::TestWithParam<unsigned> {};

TEST_P(HiddenShiftAllShifts, ReturnsShiftDeterministically)
{
    const Device device = MakePoughkeepsie();
    HiddenShiftOptions options;
    options.shift = GetParam();
    const Circuit c =
        BuildHiddenShiftCircuit(device, {10, 15, 11, 12}, options);
    StateVector sv(device.num_qubits());
    sv.ApplyCircuit(c);
    // The measured qubits must be exactly in the |shift> state.
    const std::array<QubitId, 4> qubits{10, 15, 11, 12};
    for (int i = 0; i < 4; ++i) {
        const double expected = ((options.shift >> i) & 1) ? 1.0 : 0.0;
        EXPECT_NEAR(sv.ProbabilityOne(qubits[i]), expected, 1e-9)
            << "qubit index " << i << " shift " << options.shift;
    }
}

INSTANTIATE_TEST_SUITE_P(Shifts, HiddenShiftAllShifts,
                         ::testing::Range(0u, 16u));

TEST(HiddenShift, RedundantVariantPreservesSemantics)
{
    const Device device = MakePoughkeepsie();
    HiddenShiftOptions options;
    options.shift = 0b0110;
    options.redundant_cnots = true;
    const Circuit c =
        BuildHiddenShiftCircuit(device, {10, 15, 11, 12}, options);
    StateVector sv(device.num_qubits());
    sv.ApplyCircuit(c);
    const std::array<QubitId, 4> qubits{10, 15, 11, 12};
    for (int i = 0; i < 4; ++i) {
        const double expected = ((options.shift >> i) & 1) ? 1.0 : 0.0;
        EXPECT_NEAR(sv.ProbabilityOne(qubits[i]), expected, 1e-9);
    }
}

TEST(HiddenShift, RedundantVariantTriplesCnots)
{
    const Device device = MakePoughkeepsie();
    const Circuit plain =
        BuildHiddenShiftCircuit(device, {10, 15, 11, 12}, {});
    HiddenShiftOptions options;
    options.redundant_cnots = true;
    const Circuit redundant =
        BuildHiddenShiftCircuit(device, {10, 15, 11, 12}, options);
    EXPECT_EQ(redundant.CountKind(GateKind::kCX),
              3 * plain.CountKind(GateKind::kCX));
}

TEST(HiddenShift, RejectsUncoupledQubits)
{
    const Device device = MakePoughkeepsie();
    EXPECT_THROW(BuildHiddenShiftCircuit(device, {0, 13, 11, 12}, {}),
                 Error);
}

TEST(Supremacy, HitsGateTarget)
{
    const Device device = MakeGridDevice(4, 5, 11);
    SupremacyOptions options;
    options.num_qubits = 18;
    options.target_gates = 500;
    const Circuit c = BuildSupremacyCircuit(device, options);
    EXPECT_GE(c.size(), 500);
    EXPECT_LE(c.size(), 600);  // One layer of slack past the target.
    EXPECT_GT(c.CountTwoQubitGates(), 50);
}

TEST(Supremacy, RespectsConnectivity)
{
    const Device device = MakeGridDevice(3, 4, 11);
    SupremacyOptions options;
    options.num_qubits = 12;
    options.target_gates = 200;
    const Circuit c = BuildSupremacyCircuit(device, options);
    for (const Gate& g : c.gates()) {
        if (g.IsTwoQubitUnitary()) {
            EXPECT_TRUE(device.topology().AreConnected(g.qubits[0],
                                                       g.qubits[1]));
        }
        for (QubitId q : g.qubits) {
            EXPECT_LT(q, options.num_qubits);
        }
    }
}

TEST(Supremacy, DisjointCnotsWithinALayer)
{
    const Device device = MakeGridDevice(3, 4, 11);
    const Circuit c = BuildSupremacyCircuit(device, {});
    // CNOTs between two consecutive 1q layers must touch distinct qubits.
    std::set<QubitId> busy;
    for (const Gate& g : c.gates()) {
        if (g.IsSingleQubitUnitary() || g.IsMeasure()) {
            busy.clear();
            continue;
        }
        for (QubitId q : g.qubits) {
            EXPECT_TRUE(busy.insert(q).second) << "qubit " << q;
        }
    }
}

}  // namespace
}  // namespace xtalk
