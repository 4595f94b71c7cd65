/**
 * @file
 * Tests for the extension features: the exact density-matrix simulator,
 * characterization persistence, interleaved RB, and crosstalk-aware
 * path selection.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "characterization/io.h"
#include "characterization/rb.h"
#include "common/error.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "scheduler/scheduler.h"
#include "sim/density_matrix.h"
#include "sim/gate_matrices.h"
#include "sim/noisy_simulator.h"
#include "sim/statevector.h"
#include "transpile/routing.h"

namespace xtalk {
namespace {

TEST(DensityMatrix, PureStateEvolutionMatchesStateVector)
{
    Circuit c(3);
    c.H(0).CX(0, 1).T(1).CX(1, 2).H(2);
    DensityMatrix rho(3);
    StateVector sv(3);
    for (const Gate& g : c.gates()) {
        rho.ApplyGate(g);
        sv.ApplyGate(g);
    }
    EXPECT_NEAR(rho.Trace(), 1.0, 1e-10);
    EXPECT_NEAR(rho.Purity(), 1.0, 1e-10);
    const auto probs_rho = rho.Probabilities();
    const auto probs_sv = sv.Probabilities();
    for (size_t i = 0; i < probs_rho.size(); ++i) {
        EXPECT_NEAR(probs_rho[i], probs_sv[i], 1e-10) << "basis " << i;
    }
    EXPECT_NEAR(rho.FidelityWithPure(sv.amplitudes()), 1.0, 1e-10);
}

TEST(DensityMatrix, DepolarizingReducesPurity)
{
    DensityMatrix rho(2);
    rho.ApplyGate(Gate{GateKind::kH, {0}, {}, -1});
    rho.ApplyDepolarizing({0, 1}, 0.2);
    EXPECT_NEAR(rho.Trace(), 1.0, 1e-10);
    EXPECT_LT(rho.Purity(), 1.0);
    EXPECT_GT(rho.Purity(), 0.25);
}

TEST(DensityMatrix, FullDepolarizingIsMaximallyMixed)
{
    DensityMatrix rho(1);
    rho.ApplyDepolarizing({0}, 1.0);
    // 1q depolarizing with p=1 over the 3 Paulis of |0><0| yields
    // (X|0><0|X + Y..Y + Z..Z)/3 = diag(1/3, 2/3).
    const auto probs = rho.Probabilities();
    EXPECT_NEAR(probs[0], 1.0 / 3.0, 1e-10);
    EXPECT_NEAR(probs[1], 2.0 / 3.0, 1e-10);
}

TEST(DensityMatrix, AmplitudeDampingFixedPoint)
{
    DensityMatrix rho(1);
    rho.ApplyGate(Gate{GateKind::kX, {0}, {}, -1});
    rho.ApplyAmplitudeDamping(0, 0.3);
    EXPECT_NEAR(rho.Probabilities()[1], 0.7, 1e-10);
    rho.ApplyAmplitudeDamping(0, 1.0);
    EXPECT_NEAR(rho.Probabilities()[0], 1.0, 1e-10);
    EXPECT_NEAR(rho.Purity(), 1.0, 1e-10);
}

TEST(DensityMatrix, DephasingKillsCoherence)
{
    DensityMatrix rho(1);
    rho.ApplyGate(Gate{GateKind::kH, {0}, {}, -1});
    EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.5, 1e-10);
    rho.ApplyDephasing(0, 0.5);
    EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.0, 1e-10);
    // Diagonal untouched.
    EXPECT_NEAR(rho.Probabilities()[0], 0.5, 1e-10);
}

TEST(CharacterizationIo, RoundTripsThroughText)
{
    CrosstalkCharacterization original;
    original.SetIndependentError(0, 0.0123);
    original.SetIndependentError(5, 0.02);
    original.SetConditionalError(0, 5, 0.11);
    original.SetConditionalError(5, 0, 0.07);

    const std::string text = SerializeCharacterization(original);
    const CrosstalkCharacterization parsed = ParseCharacterization(text);
    EXPECT_DOUBLE_EQ(parsed.IndependentError(0), 0.0123);
    EXPECT_DOUBLE_EQ(parsed.IndependentError(5), 0.02);
    EXPECT_DOUBLE_EQ(parsed.ConditionalError(0, 5), 0.11);
    EXPECT_DOUBLE_EQ(parsed.ConditionalError(5, 0), 0.07);
    EXPECT_EQ(parsed.conditional_entries().size(), 2u);
}

TEST(CharacterizationIo, FileRoundTrip)
{
    CrosstalkCharacterization original;
    original.SetIndependentError(2, 0.018);
    original.SetConditionalError(2, 3, 0.09);
    const std::string path = "/tmp/xtalk_io_test.txt";
    SaveCharacterization(path, original);
    const CrosstalkCharacterization loaded = LoadCharacterization(path);
    EXPECT_DOUBLE_EQ(loaded.IndependentError(2), 0.018);
    EXPECT_DOUBLE_EQ(loaded.ConditionalError(2, 3), 0.09);
    std::remove(path.c_str());
}

TEST(CharacterizationIo, DeviceTagRoundTrips)
{
    CrosstalkCharacterization data;
    data.SetIndependentError(1, 0.02);
    const std::string text =
        SerializeCharacterization(data, "ibmq_poughkeepsie");
    std::string device_name;
    const auto parsed = ParseCharacterization(text, &device_name);
    EXPECT_EQ(device_name, "ibmq_poughkeepsie");
    EXPECT_TRUE(parsed.HasIndependentError(1));
    // Untagged files report an empty name.
    ParseCharacterization(SerializeCharacterization(data), &device_name);
    EXPECT_TRUE(device_name.empty());
}

TEST(CharacterizationIo, RejectsMalformedInput)
{
    EXPECT_THROW(ParseCharacterization("independent x y\n"), Error);
    EXPECT_THROW(ParseCharacterization("bogus 1 2 3\n"), Error);
    EXPECT_THROW(LoadCharacterization("/nonexistent/path/file"), Error);
}

TEST(CharacterizationIo, RejectsNonPhysicalErrorRates)
{
    // Corrupt files must be refused at the boundary, never fed to the
    // scheduler: NaN, infinity, and rates outside [0, 1].
    EXPECT_THROW(ParseCharacterization("independent 0 nan\n"), Error);
    EXPECT_THROW(ParseCharacterization("independent 0 inf\n"), Error);
    EXPECT_THROW(ParseCharacterization("independent 0 -0.1\n"), Error);
    EXPECT_THROW(ParseCharacterization("independent 0 1.5\n"), Error);
    EXPECT_THROW(ParseCharacterization("conditional 0 1 nan\n"), Error);
    EXPECT_THROW(ParseCharacterization("conditional 0 1 2.0\n"), Error);
    // The diagnostic carries the field, the pair, and the line.
    try {
        ParseCharacterization("independent 0 0.01\nconditional 3 4 1.5\n");
        FAIL() << "expected out-of-range conditional rate to be rejected";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("conditional error"), std::string::npos) << what;
        EXPECT_NE(what.find("(3, 4)"), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
}

TEST(CharacterizationIo, InjectedIoFaultsSurfaceAsErrors)
{
    CrosstalkCharacterization data;
    data.SetIndependentError(0, 0.01);
    const std::string path = "/tmp/xtalk_io_fault_test.txt";
    {
        faults::ScopedFaultPlan scoped("io.save:n=1");
        EXPECT_THROW(SaveCharacterization(path, data),
                     faults::InjectedFault);
    }
    SaveCharacterization(path, data);
    {
        faults::ScopedFaultPlan scoped("io.load:n=1");
        EXPECT_THROW(LoadCharacterization(path), faults::InjectedFault);
        // The fault was transient: the very next attempt succeeds.
        EXPECT_TRUE(
            LoadCharacterization(path).HasIndependentError(0));
    }
    std::remove(path.c_str());
}

TEST(CharacterizationIo, IgnoresCommentsAndBlankLines)
{
    const auto parsed = ParseCharacterization(
        "# header\n\nindependent 3 0.01\n# trailing\n");
    EXPECT_TRUE(parsed.HasIndependentError(3));
}

TEST(InterleavedRb, InterleavedDecayIsFasterAndGateErrorPlausible)
{
    const Device device = MakePoughkeepsie();
    const EdgeId edge = device.topology().FindEdge(5, 6);
    RbConfig config;
    config.lengths = {1, 2, 4, 7, 12, 20, 30};
    config.sequences_per_length = 6;
    config.shots = 128;
    config.seed = 31;
    RbRunner runner(device, config);
    const InterleavedRbResult result = runner.MeasureInterleaved(edge);
    ASSERT_TRUE(result.ok);
    // The interleaved sequence has strictly more error per step.
    EXPECT_LT(result.interleaved.fit.p, result.standard.fit.p);
    // The extracted gate error should be on the injected CNOT scale.
    const double truth = device.CxError(edge);
    EXPECT_GT(result.gate_error, 0.3 * truth);
    EXPECT_LT(result.gate_error, 4.0 * truth + 0.02);
}

TEST(CrosstalkAwareRouting, AvoidsHighCrosstalkCouplerWhenDetourExists)
{
    // Line of 5 qubits with a high-crosstalk coupler in the middle would
    // leave no detour; use a grid so an alternative route exists.
    const Device device = MakeGridDevice(3, 3, 21, /*with_crosstalk=*/false);
    const Topology& topo = device.topology();
    // Construct a characterization that brands one coupler on the
    // shortest 0 -> 8 route as heavily crosstalk-afflicted.
    CrosstalkCharacterization characterization;
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        characterization.SetIndependentError(e, 0.01);
    }
    const auto direct = topo.ShortestPath(0, 8);
    ASSERT_GE(direct.size(), 3u);
    const EdgeId bad = topo.FindEdge(direct[1], direct[2]);
    EdgeId partner = -1;
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        if (e != bad && topo.EdgeDistance(bad, e) == 1) {
            partner = e;
            break;
        }
    }
    ASSERT_GE(partner, 0);
    characterization.SetConditionalError(bad, partner, 0.25);

    const auto path =
        LowestCrosstalkPath(device, characterization, 0, 8, 1.0);
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 8);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
        const EdgeId e = topo.FindEdge(path[i], path[i + 1]);
        ASSERT_GE(e, 0) << "path not connected";
        EXPECT_NE(e, bad) << "routed through the crosstalk coupler";
    }
}

TEST(CrosstalkAwareRouting, DegeneratesToCheapestPathWithoutCrosstalk)
{
    const Device device = MakeGridDevice(2, 3, 23, false);
    CrosstalkCharacterization characterization;
    for (EdgeId e = 0; e < device.topology().num_edges(); ++e) {
        characterization.SetIndependentError(e, 0.01);
    }
    const auto path = LowestCrosstalkPath(device, characterization, 0, 5);
    // With uniform costs the result is a shortest path.
    EXPECT_EQ(static_cast<int>(path.size()) - 1,
              device.topology().Distance(0, 5));
}

}  // namespace
}  // namespace xtalk
