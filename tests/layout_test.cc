/**
 * @file
 * Tests for the initial-placement passes (trivial and noise-aware
 * layout) and their interaction with routing.
 */
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "device/ibmq_devices.h"
#include "transpile/layout.h"
#include "transpile/routing.h"

namespace xtalk {
namespace {

TEST(Layout, TrivialIsIdentity)
{
    Circuit c(5);
    c.H(0);
    EXPECT_EQ(TrivialLayout(c), (std::vector<QubitId>{0, 1, 2, 3, 4}));
}

TEST(Layout, NoiseAwareIsInjectiveAndInRange)
{
    const Device device = MakePoughkeepsie();
    Circuit logical(6);
    logical.CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4).CX(4, 5).CX(0, 5);
    const auto layout = NoiseAwareLayout(device, logical);
    ASSERT_EQ(layout.size(), 6u);
    std::set<QubitId> seen;
    for (QubitId p : layout) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, device.num_qubits());
        EXPECT_TRUE(seen.insert(p).second) << "duplicate physical " << p;
    }
}

TEST(Layout, InteractingPairsPlacedAdjacentWhenPossible)
{
    const Device device = MakePoughkeepsie();
    // A simple two-qubit interaction must land on a coupler.
    Circuit logical(2);
    logical.CX(0, 1).CX(0, 1).CX(0, 1);
    const auto layout = NoiseAwareLayout(device, logical);
    EXPECT_TRUE(device.topology().AreConnected(layout[0], layout[1]));
}

TEST(Layout, PrefersLowErrorCouplerForDominantPair)
{
    const Device device = MakePoughkeepsie();
    Circuit logical(2);
    for (int i = 0; i < 10; ++i) {
        logical.CX(0, 1);
    }
    const auto layout = NoiseAwareLayout(device, logical);
    const EdgeId chosen =
        device.topology().FindEdge(layout[0], layout[1]);
    ASSERT_GE(chosen, 0);
    // The chosen coupler must be within 1.5x of the device's best.
    double best = 1.0;
    for (EdgeId e = 0; e < device.topology().num_edges(); ++e) {
        best = std::min(best, device.CxError(e));
    }
    EXPECT_LE(device.CxError(chosen), 1.5 * best + 1e-12);
}

TEST(Layout, CrosstalkPenaltySteersAwayFromHighPairs)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit logical(4);
    // Two heavily-used independent pairs -> the placer wants two
    // disjoint couplers; with a strong penalty they should avoid
    // high-crosstalk partnerships with each other.
    for (int i = 0; i < 8; ++i) {
        logical.CX(0, 1).CX(2, 3);
    }
    const auto layout = NoiseAwareLayout(device, logical, &characterization,
                                         /*crosstalk_penalty_weight=*/4.0);
    const EdgeId e01 = device.topology().FindEdge(layout[0], layout[1]);
    const EdgeId e23 = device.topology().FindEdge(layout[2], layout[3]);
    ASSERT_GE(e01, 0);
    ASSERT_GE(e23, 0);
    EXPECT_FALSE(characterization.IsHighCrosstalk(e01, e23));
    EXPECT_FALSE(characterization.IsHighCrosstalk(e23, e01));
}

TEST(Layout, ComposesWithRouting)
{
    const Device device = MakeBoeblingen();
    Circuit logical(4);
    logical.H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(0, 3).MeasureAll();
    const auto layout = NoiseAwareLayout(device, logical);
    const RoutingResult routed = RouteCircuit(device, logical, layout);
    for (const Gate& g : routed.circuit.gates()) {
        if (g.IsTwoQubitUnitary()) {
            EXPECT_TRUE(device.topology().AreConnected(g.qubits[0],
                                                       g.qubits[1]));
        }
    }
    EXPECT_EQ(routed.circuit.CountKind(GateKind::kMeasure), 4);
}

TEST(Layout, RejectsOversizedCircuits)
{
    const Device device = MakeLinearDevice(3, 3);
    Circuit logical(4);
    logical.CX(0, 1);
    EXPECT_THROW(NoiseAwareLayout(device, logical), Error);
}

}  // namespace
}  // namespace xtalk
