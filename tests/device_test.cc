/**
 * @file
 * Tests for the device substrate: topology distance queries, calibration
 * accessors, the crosstalk ground truth + drift model, and the IBMQ
 * device factories (structure matching the paper's Figure 3 devices).
 */
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "device/device_io.h"
#include "device/ibmq_devices.h"
#include "telemetry/ledger.h"

namespace xtalk {
namespace {

TEST(Topology, BasicQueries)
{
    Topology topo(4, {{0, 1}, {1, 2}, {2, 3}});
    EXPECT_EQ(topo.num_edges(), 3);
    EXPECT_TRUE(topo.AreConnected(0, 1));
    EXPECT_TRUE(topo.AreConnected(1, 0));  // Undirected.
    EXPECT_FALSE(topo.AreConnected(0, 2));
    EXPECT_EQ(topo.Distance(0, 3), 3);
    EXPECT_EQ(topo.Distance(2, 2), 0);
    EXPECT_EQ(topo.Neighbors(1), (std::vector<QubitId>{0, 2}));
}

TEST(Topology, RejectsBadEdges)
{
    EXPECT_THROW(Topology(2, {{0, 0}}), Error);
    EXPECT_THROW(Topology(2, {{0, 5}}), Error);
    EXPECT_THROW(Topology(3, {{0, 1}, {1, 0}}), Error);  // Duplicate.
}

TEST(Topology, DisconnectedComponents)
{
    Topology topo(4, {{0, 1}, {2, 3}});
    EXPECT_EQ(topo.Distance(0, 3), -1);
    EXPECT_TRUE(topo.ShortestPath(0, 3).empty());
    EXPECT_EQ(topo.EdgeDistance(0, 1), -1);
}

TEST(Topology, ShortestPathEndpointsInclusive)
{
    Topology topo(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
    const auto path = topo.ShortestPath(0, 4);
    EXPECT_EQ(path, (std::vector<QubitId>{0, 1, 2, 3, 4}));
    EXPECT_EQ(topo.ShortestPath(2, 2), (std::vector<QubitId>{2}));
}

TEST(Topology, EdgeDistanceZeroWhenSharingQubit)
{
    Topology topo(4, {{0, 1}, {1, 2}, {2, 3}});
    EXPECT_EQ(topo.EdgeDistance(0, 1), 0);  // Share qubit 1.
    EXPECT_EQ(topo.EdgeDistance(0, 2), 1);  // (0,1) vs (2,3): 1->2.
}

TEST(Topology, SimultaneousPairsExcludeSharedQubits)
{
    Topology topo(4, {{0, 1}, {1, 2}, {2, 3}});
    const auto pairs = topo.SimultaneousEdgePairs();
    ASSERT_EQ(pairs.size(), 1u);  // Only (0,1) with (2,3).
    EXPECT_EQ(topo.EdgeDistance(pairs[0].first, pairs[0].second), 1);
}

TEST(Topology, FindEdgeMatchesEdgeList)
{
    std::vector<Topology> topologies;
    for (const Device& device : MakePaperDevices()) {
        topologies.push_back(device.topology());
    }
    topologies.push_back(MakeGridDevice(3, 4).topology());
    // Edge ids out of neighbor order, endpoints given high first.
    topologies.push_back(
        Topology(5, {{3, 1}, {0, 4}, {2, 1}, {4, 3}, {0, 2}}));
    for (const Topology& topo : topologies) {
        const int n = topo.num_qubits();
        for (QubitId a = 0; a < n; ++a) {
            for (QubitId b = 0; b < n; ++b) {
                EdgeId scanned = -1;
                for (EdgeId e = 0; e < topo.num_edges(); ++e) {
                    const Edge& edge = topo.edges()[e];
                    if ((edge.a == a && edge.b == b) ||
                        (edge.a == b && edge.b == a)) {
                        scanned = e;
                    }
                }
                EXPECT_EQ(topo.FindEdge(a, b), scanned)
                    << n << " qubits, (" << a << ", " << b << ")";
                EXPECT_EQ(topo.AreConnected(a, b), scanned >= 0);
            }
        }
        for (const auto& [a, b] : std::vector<std::pair<QubitId, QubitId>>{
                 {-1, 0}, {0, -1}, {n, 0}, {0, n}, {n, n}}) {
            EXPECT_THROW(topo.FindEdge(a, b), Error) << a << ", " << b;
        }
    }
}

TEST(CrosstalkGroundTruth, FactorsAndHighPairs)
{
    CrosstalkGroundTruth truth;
    truth.SetFactor(0, 1, 8.0);
    truth.SetFactor(1, 0, 1.2);
    EXPECT_DOUBLE_EQ(truth.Factor(0, 1), 8.0);
    EXPECT_DOUBLE_EQ(truth.Factor(2, 3), 1.0);  // Unset defaults to 1.
    const auto high = truth.HighCrosstalkPairs(3.0);
    ASSERT_EQ(high.size(), 1u);
    EXPECT_EQ(high[0], (std::pair<EdgeId, EdgeId>{0, 1}));
    EXPECT_THROW(truth.SetFactor(0, 0, 2.0), Error);
    EXPECT_THROW(truth.SetFactor(0, 1, 0.5), Error);
}

TEST(DriftModel, DeterministicAndBounded)
{
    const DriftModel drift(42);
    for (int day = 0; day < 30; ++day) {
        const double f = drift.IndependentFactor(3, day);
        EXPECT_DOUBLE_EQ(f, drift.IndependentFactor(3, day));
        EXPECT_GT(f, 0.6);
        EXPECT_LT(f, 1.6);
        const double c = drift.ConditionalFactor(1, 2, day);
        EXPECT_GT(c, 0.4);
        EXPECT_LT(c, 2.5);
    }
}

TEST(DriftModel, VariesAcrossDaysAndEntities)
{
    const DriftModel drift(42);
    EXPECT_NE(drift.IndependentFactor(0, 1), drift.IndependentFactor(0, 2));
    EXPECT_NE(drift.IndependentFactor(0, 1), drift.IndependentFactor(1, 1));
}

TEST(Device, CalibrationAccessorsInRange)
{
    const Device device = MakePoughkeepsie();
    for (EdgeId e = 0; e < device.topology().num_edges(); ++e) {
        EXPECT_GT(device.CxError(e), 0.0);
        EXPECT_LT(device.CxError(e), 0.15);
        EXPECT_GT(device.CxDuration(e), 100.0);
        EXPECT_LT(device.CxDuration(e), 1000.0);
    }
    for (QubitId q = 0; q < device.num_qubits(); ++q) {
        EXPECT_GT(device.T1us(q), 5.0);
        EXPECT_LE(device.T2us(q), 2.0 * device.T1us(q) + 1e-9);
        EXPECT_GT(device.ReadoutError(q), 0.0);
        EXPECT_LT(device.ReadoutError(q), 0.15);
        EXPECT_DOUBLE_EQ(
            device.CoherenceTimeNs(q),
            std::min(device.T1us(q), device.T2us(q)) * 1000.0);
    }
}

TEST(Device, GateDurationsByKind)
{
    const Device device = MakePoughkeepsie();
    EXPECT_DOUBLE_EQ(
        device.GateDuration(Gate{GateKind::kU1, {0}, {0.3}, -1}), 0.0);
    EXPECT_DOUBLE_EQ(
        device.GateDuration(Gate{GateKind::kBarrier, {0, 1}, {}, -1}), 0.0);
    EXPECT_GT(device.GateDuration(Gate{GateKind::kH, {0}, {}, -1}), 0.0);
    const Gate cx{GateKind::kCX, {0, 1}, {}, -1};
    EXPECT_GT(device.GateDuration(cx), 100.0);
    const Gate swap{GateKind::kSwap, {0, 1}, {}, -1};
    EXPECT_DOUBLE_EQ(device.GateDuration(swap),
                     3.0 * device.GateDuration(cx));
    EXPECT_THROW(device.GateDuration(Gate{GateKind::kCX, {0, 13}, {}, -1}),
                 Error);
}

TEST(Device, ConditionalErrorFallsBackToIndependent)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    const EdgeId far_edge = topo.FindEdge(17, 18);
    EXPECT_GT(device.ConditionalCxError(victim, aggressor),
              4.0 * device.CxError(victim));
    // No ground-truth entry beyond 1 hop: conditional == independent.
    EXPECT_DOUBLE_EQ(device.ConditionalCxError(victim, far_edge),
                     device.CxError(victim));
}

TEST(Device, DayChangesDriftButNotStructure)
{
    Device device = MakePoughkeepsie();
    const EdgeId victim = device.topology().FindEdge(10, 15);
    const EdgeId aggressor = device.topology().FindEdge(11, 12);
    const double day0 = device.ConditionalCxError(victim, aggressor);
    device.SetDay(3);
    const double day3 = device.ConditionalCxError(victim, aggressor);
    EXPECT_NE(day0, day3);
    EXPECT_TRUE(device.IsHighCrosstalkPair(victim, aggressor, 2.0));
}

class PaperDeviceStructure : public ::testing::TestWithParam<int> {};

TEST_P(PaperDeviceStructure, MatchesPaperTopology)
{
    const std::vector<Device> devices = MakePaperDevices();
    const Device& device = devices[GetParam()];
    EXPECT_EQ(device.num_qubits(), 20);
    // All high-crosstalk pairs must be at 1-hop separation (paper's
    // device-design expectation).
    for (const auto& [e1, e2] :
         device.ground_truth().HighCrosstalkPairs(3.0)) {
        EXPECT_EQ(device.topology().EdgeDistance(e1, e2), 1)
            << device.name();
    }
    // Connectivity is sparser than a full 2D grid (paper Figure 3 note).
    EXPECT_LT(device.topology().num_edges(), 31);
    EXPECT_GE(device.topology().num_edges(), 22);
}

INSTANTIATE_TEST_SUITE_P(AllThree, PaperDeviceStructure,
                         ::testing::Values(0, 1, 2));

TEST(DeviceFactories, PoughkeepsieMatchesPaperCounts)
{
    const Device device = MakePoughkeepsie();
    EXPECT_EQ(device.name(), "ibmq_poughkeepsie");
    EXPECT_EQ(device.topology().num_edges(), 23);
    EXPECT_EQ(device.topology().SimultaneousEdgePairs().size(), 221u);
    EXPECT_EQ(device.ground_truth().HighCrosstalkPairs(3.0).size(), 5u);
    // Qubit 10 is the low-coherence outlier from the Figure 6 case study.
    for (QubitId q = 0; q < device.num_qubits(); ++q) {
        if (q != 10) {
            EXPECT_GT(device.CoherenceTimeNs(q),
                      device.CoherenceTimeNs(10));
        }
    }
}

TEST(DeviceFactories, DeterministicForSeed)
{
    const Device a = MakeBoeblingen(5);
    const Device b = MakeBoeblingen(5);
    const Device c = MakeBoeblingen(6);
    EXPECT_DOUBLE_EQ(a.CxError(0), b.CxError(0));
    EXPECT_NE(a.CxError(0), c.CxError(0));
}

TEST(DeviceFactories, LinearAndGridShapes)
{
    const Device line = MakeLinearDevice(6, 3, true);
    EXPECT_EQ(line.num_qubits(), 6);
    EXPECT_EQ(line.topology().num_edges(), 5);
    const Device grid = MakeGridDevice(3, 4, 5);
    EXPECT_EQ(grid.num_qubits(), 12);
    EXPECT_EQ(grid.topology().num_edges(), 17);
    EXPECT_FALSE(grid.ground_truth().HighCrosstalkPairs(3.0).empty());
    EXPECT_THROW(MakeLinearDevice(1), Error);
}

TEST(DeviceFactories, PinnedSpecsForSeededDevices)
{
    // Every sampled calibration and crosstalk factor, serialized at 17
    // significant digits, is pinned by hash: a change to the synthetic
    // calibration ranges or the sampling order moves one of these.
    const struct {
        Device device;
        const char* spec_hash;
    } pinned[] = {
        {MakePoughkeepsie(), "7fe24bd64feb43ac"},
        {MakeJohannesburg(), "179e3ca4cbeb8a8c"},
        {MakeBoeblingen(), "c31248e1a727dfff"},
        {MakeLinearDevice(6, 3, true), "771271d01385ee8f"},
        {MakeGridDevice(4, 5), "62b3ea49d68ece11"},
    };
    for (const auto& [device, spec_hash] : pinned) {
        EXPECT_EQ(telemetry::FnvHex(SerializeDeviceSpec(device)), spec_hash)
            << device.name();
    }
}

TEST(DeviceIo, RoundTripsPaperDevice)
{
    const Device original = MakePoughkeepsie();
    const Device parsed = ParseDeviceSpec(SerializeDeviceSpec(original));
    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_EQ(parsed.num_qubits(), original.num_qubits());
    EXPECT_EQ(parsed.topology().num_edges(),
              original.topology().num_edges());
    for (QubitId q = 0; q < original.num_qubits(); ++q) {
        EXPECT_DOUBLE_EQ(parsed.T1us(q), original.T1us(q));
        EXPECT_DOUBLE_EQ(parsed.ReadoutError(q), original.ReadoutError(q));
    }
    EXPECT_EQ(parsed.ground_truth().entries(),
              original.ground_truth().entries());
    EXPECT_EQ(parsed.traits().simultaneous_readout,
              original.traits().simultaneous_readout);
}

TEST(DeviceIo, ParsesMinimalSpec)
{
    const Device device = ParseDeviceSpec(
        "device tiny\n"
        "qubits 3\n"
        "traits 1 1\n"
        "qubit 0 t1_us 50 t2_us 40 readout_err 0.03 sq_err 0.0005 "
        "sq_ns 50 readout_ns 1000\n"
        "qubit 1 t1_us 60 t2_us 55 readout_err 0.04 sq_err 0.0006 "
        "sq_ns 50 readout_ns 1000\n"
        "qubit 2 t1_us 70 t2_us 66 readout_err 0.05 sq_err 0.0007 "
        "sq_ns 50 readout_ns 1000\n"
        "edge 0 1 cx_err 0.015 cx_ns 400\n"
        "edge 1 2 cx_err 0.02 cx_ns 450\n");
    EXPECT_EQ(device.name(), "tiny");
    EXPECT_EQ(device.num_qubits(), 3);
    EXPECT_DOUBLE_EQ(device.T1us(2), 70.0);
    EXPECT_EQ(device.topology().num_edges(), 2);
}

TEST(DeviceIo, RejectsMalformedSpecs)
{
    EXPECT_THROW(ParseDeviceSpec("device x\n"), Error);  // No qubits.
    EXPECT_THROW(ParseDeviceSpec("qubits 2\n"), Error);  // No edges.
    EXPECT_THROW(ParseDeviceSpec("qubits 2\nedge 0 1 cx_err 0.01\n"),
                 Error);  // Missing cx_ns.
    EXPECT_THROW(ParseDeviceSpec("qubits 2\nbogus 1\n"), Error);
    EXPECT_THROW(
        ParseDeviceSpec("qubits 2\nedge 0 1 cx_err 0.01 cx_ns 400\n"
                        "crosstalk 0 1 1 0 factor 5\n"),
        Error);  // Crosstalk names the same coupler twice... distinct ids
                 // required by the ground-truth model.
}

TEST(DeviceIo, RejectsQubitCountsPastTheLimit)
{
    // The count sizes every per-qubit table, so a huge one must be
    // refused before anything is allocated for it.
    for (const char* count : {"40000", "2147483647"}) {
        try {
            ParseDeviceSpec(std::string("device big\nqubits ") + count +
                            "\nedge 0 1 cx_err 0.01 cx_ns 400\n");
            ADD_FAILURE() << "qubits " << count << " parsed";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("line 2: qubit count"),
                      std::string::npos)
                << e.what();
        }
    }
    const std::string at_limit =
        "qubits " + std::to_string(kMaxSpecQubits) +
        "\nedge 0 1 cx_err 0.01 cx_ns 400\n";
    EXPECT_EQ(ParseDeviceSpec(at_limit).num_qubits(), kMaxSpecQubits);
}

TEST(DeviceIo, RejectsNonPhysicalNumbers)
{
    // One-substitution template around the minimal valid spec: swap a
    // single field value and the parser must refuse it, pointing at the
    // offending line.
    const auto spec = [](const std::string& qubit_fields,
                         const std::string& edge_fields) {
        return "device tiny\nqubits 2\n"
               "qubit 0 " + qubit_fields + "\n"
               "qubit 1 t1_us 60 t2_us 55 readout_err 0.04 sq_err 0.0006 "
               "sq_ns 50 readout_ns 1000\n"
               "edge 0 1 " + edge_fields + "\n";
    };
    const std::string good_qubit =
        "t1_us 50 t2_us 40 readout_err 0.03 sq_err 0.0005 "
        "sq_ns 50 readout_ns 1000";
    const std::string good_edge = "cx_err 0.015 cx_ns 400";

    EXPECT_NO_THROW(ParseDeviceSpec(spec(good_qubit, good_edge)));
    // NaN / infinity never pass, whatever the field.
    EXPECT_THROW(ParseDeviceSpec(spec(
                     "t1_us nan t2_us 40 readout_err 0.03 sq_err 0.0005 "
                     "sq_ns 50 readout_ns 1000",
                     good_edge)),
                 Error);
    EXPECT_THROW(ParseDeviceSpec(spec(good_qubit, "cx_err 0.015 cx_ns inf")),
                 Error);
    // Durations and relaxation times must be strictly positive.
    EXPECT_THROW(ParseDeviceSpec(spec(
                     "t1_us -50 t2_us 40 readout_err 0.03 sq_err 0.0005 "
                     "sq_ns 50 readout_ns 1000",
                     good_edge)),
                 Error);
    EXPECT_THROW(ParseDeviceSpec(spec(good_qubit, "cx_err 0.015 cx_ns 0")),
                 Error);
    // Error rates live in [0, 1].
    EXPECT_THROW(ParseDeviceSpec(spec(
                     "t1_us 50 t2_us 40 readout_err 1.5 sq_err 0.0005 "
                     "sq_ns 50 readout_ns 1000",
                     good_edge)),
                 Error);
    EXPECT_THROW(ParseDeviceSpec(spec(good_qubit, "cx_err -0.1 cx_ns 400")),
                 Error);
    // Crosstalk factors are multiplicative aggravations (>= 1).
    EXPECT_THROW(
        ParseDeviceSpec(
            "device tiny\nqubits 3\n"
            "qubit 0 " + good_qubit + "\n"
            "qubit 1 " + good_qubit + "\n"
            "qubit 2 " + good_qubit + "\n"
            "edge 0 1 " + good_edge + "\n"
            "edge 1 2 " + good_edge + "\n"
            "crosstalk 0 1 1 2 factor 0.5\n"),
        Error);
    // The diagnostic names the offending line.
    try {
        ParseDeviceSpec(spec(
            "t1_us 50 t2_us 40 readout_err 1.5 sq_err 0.0005 "
            "sq_ns 50 readout_ns 1000",
            good_edge));
        FAIL() << "expected out-of-range readout_err to be rejected";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find("readout_err"), std::string::npos) << what;
    }
}

}  // namespace
}  // namespace xtalk
