#include "device/ibmq_devices.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace xtalk {

namespace {

// Synthetic calibration ranges around the paper's reported averages.
constexpr double kMeanCxError = 0.018;
constexpr double kMinCxError = 0.005;
constexpr double kMaxCxError = 0.065;
constexpr double kMeanReadoutError = 0.048;
constexpr double kMinT1Us = 30.0;
constexpr double kMaxT1Us = 100.0;
constexpr double kCxDurationMeanNs = 400.0;
constexpr double kCxDurationSpreadNs = 120.0;
constexpr double kSqDurationNs = 50.0;
constexpr double kReadoutDurationNs = 1000.0;

/** Sample per-qubit and per-edge calibrations around the paper's values. */
void
SampleCalibrations(const Topology& topo, Rng& rng,
                   std::vector<QubitCalibration>* qubits,
                   std::vector<EdgeCalibration>* edges)
{
    qubits->clear();
    for (int q = 0; q < topo.num_qubits(); ++q) {
        QubitCalibration cal;
        cal.t1_us = rng.Uniform(kMinT1Us, kMaxT1Us);
        // T2 <= 2*T1 physically; occasionally much lower (noise-limited).
        const double t2_cap = 2.0 * cal.t1_us;
        cal.t2_us = std::min(t2_cap, rng.Uniform(0.3, 1.4) * cal.t1_us);
        cal.readout_error =
            std::clamp(rng.Normal(kMeanReadoutError, 0.015), 0.01, 0.12);
        cal.sq_error = std::clamp(rng.Normal(0.0006, 0.0002), 0.0001, 0.001);
        cal.sq_duration_ns = kSqDurationNs;
        cal.readout_duration_ns = kReadoutDurationNs;
        qubits->push_back(cal);
    }
    edges->clear();
    for (int e = 0; e < topo.num_edges(); ++e) {
        EdgeCalibration cal;
        // Log-normal-ish spread around the mean with occasional bad edges.
        double err = kMeanCxError * std::exp(rng.Normal(0.0, 0.35));
        if (rng.Bernoulli(0.08)) {
            err *= rng.Uniform(2.0, 3.5);  // Occasional poorly-tuned coupler.
        }
        cal.cx_error = std::clamp(err, kMinCxError, kMaxCxError);
        cal.cx_duration_ns = std::clamp(
            rng.Normal(kCxDurationMeanNs, kCxDurationSpreadNs), 180.0, 800.0);
        edges->push_back(cal);
    }
}

/** Inject directional crosstalk factors for the listed unordered pairs. */
CrosstalkGroundTruth
BuildGroundTruth(const Topology& topo,
                 const std::vector<std::pair<EdgeId, EdgeId>>& pairs,
                 Rng& rng)
{
    CrosstalkGroundTruth truth;
    for (const auto& [e1, e2] : pairs) {
        XTALK_REQUIRE(e1 >= 0 && e1 < topo.num_edges() && e2 >= 0 &&
                          e2 < topo.num_edges(),
                      "crosstalk pair (" << e1 << ", " << e2
                                         << ") out of range");
        XTALK_REQUIRE(!topo.edge(e1).SharesQubit(topo.edge(e2)),
                      "crosstalk pair shares a qubit");
        // Directional factors in the paper's observed up-to-11x band; the
        // two directions differ (E(gi|gj) != E(gj|gi) in Figure 4). The
        // lower bound of 5 keeps discovery robust against the decoherence
        // component RB folds into its estimates.
        truth.SetFactor(e1, e2, rng.Uniform(5.0, 11.0));
        truth.SetFactor(e2, e1, rng.Uniform(5.0, 11.0));
    }
    // Mild sub-threshold interference on the remaining 1-hop pairs, so the
    // characterizer sees realistic "boring" data rather than exact zeros.
    // Capped at 1.4x so that even at the drift model's maximum swing a
    // mild pair stays clearly below the high-crosstalk band.
    for (const auto& [e1, e2] : topo.EdgePairsAtDistance(1)) {
        if (!truth.HasEntry(e1, e2)) {
            truth.SetFactor(e1, e2, rng.Uniform(1.0, 1.4));
        }
        if (!truth.HasEntry(e2, e1)) {
            truth.SetFactor(e2, e1, rng.Uniform(1.0, 1.4));
        }
    }
    return truth;
}

/** Find an edge id by endpoints; hard error if absent (factory bug). */
EdgeId
E(const Topology& topo, QubitId a, QubitId b)
{
    const EdgeId e = topo.FindEdge(a, b);
    XTALK_ASSERT(e >= 0, "expected edge (" << a << ", " << b << ")");
    return e;
}

/**
 * Build a device from explicit parts with synthetic seeded calibration.
 * @p pairs lists unordered coupler pairs to make high-crosstalk; each
 * gets directional factors sampled in [5, 11].
 */
Device
MakeSyntheticDevice(std::string name, Topology topology,
                    const std::vector<std::pair<EdgeId, EdgeId>>& pairs,
                    uint64_t seed)
{
    Rng rng(seed);
    std::vector<QubitCalibration> qubits;
    std::vector<EdgeCalibration> edges;
    SampleCalibrations(topology, rng, &qubits, &edges);
    CrosstalkGroundTruth truth = BuildGroundTruth(topology, pairs, rng);
    return Device(std::move(name), std::move(topology), std::move(qubits),
                  std::move(edges), std::move(truth), DeviceTraits{},
                  seed ^ 0xDEADBEEFull);
}

}  // namespace

Device
MakePoughkeepsie(uint64_t seed)
{
    Topology topo(20, {{0, 1},   {1, 2},   {2, 3},   {3, 4},   {0, 5},
                       {4, 9},   {5, 6},   {6, 7},   {7, 8},   {8, 9},
                       {5, 10},  {7, 12},  {9, 14},  {10, 11}, {11, 12},
                       {12, 13}, {13, 14}, {10, 15}, {14, 19}, {15, 16},
                       {16, 17}, {17, 18}, {18, 19}});
    // Five 1-hop high-crosstalk pairs including the two the paper names:
    // (CX10,15 | CX11,12) with ~1% -> ~11% degradation, and
    // (CX13,14 | CX18,19) from the Figure 4 drift study.
    const std::vector<std::pair<EdgeId, EdgeId>> pairs = {
        {E(topo, 10, 15), E(topo, 11, 12)},
        {E(topo, 13, 14), E(topo, 18, 19)},
        {E(topo, 0, 1), E(topo, 5, 6)},
        {E(topo, 7, 12), E(topo, 8, 9)},
        {E(topo, 15, 16), E(topo, 10, 11)},
    };
    Device dev =
        MakeSyntheticDevice("ibmq_poughkeepsie", std::move(topo), pairs, seed);

    // Reproduce the named artifacts from the paper:
    // qubit 10 has by far the worst coherence on the device (the Figure 6
    // case study orders SWAP 5,10 last to keep qubit 10's lifetime short).
    // The paper quotes < 6 us; we use 15 us — still ~4x below the device
    // average — because at < 6 us randomized benchmarking on this qubit
    // would be fully decoherence-dominated and mask the crosstalk signal
    // the same Figure 3 example relies on (see DESIGN.md deviations).
    auto qubits = dev.qubit_calibrations();
    qubits[10].t1_us = 15.0;
    qubits[10].t2_us = 12.0;
    // Keep qubit 10 the unambiguous worst: floor everyone else's
    // coherence just above it.
    for (QubitId q = 0; q < 20; ++q) {
        if (q != 10) {
            qubits[q].t1_us = std::max(qubits[q].t1_us, 16.0);
            qubits[q].t2_us = std::max(qubits[q].t2_us, 14.0);
        }
    }
    // ... and CX10,15 has ~1% independent error degrading to ~11% next to
    // CX11,12 (Figure 3 example), so pin that pair's factors.
    auto edges = dev.edge_calibrations();
    edges[E(dev.topology(), 10, 15)].cx_error = 0.010;
    // The Figure 4 drift-study pair: pin moderate base errors so the
    // conditional rates land in the paper's 0.1-0.25 band instead of
    // saturating.
    edges[E(dev.topology(), 13, 14)].cx_error = 0.020;
    edges[E(dev.topology(), 18, 19)].cx_error = 0.018;
    CrosstalkGroundTruth truth = dev.ground_truth();
    truth.SetFactor(E(dev.topology(), 10, 15), E(dev.topology(), 11, 12),
                    11.0);
    truth.SetFactor(E(dev.topology(), 11, 12), E(dev.topology(), 10, 15),
                    7.0);
    truth.SetFactor(E(dev.topology(), 13, 14), E(dev.topology(), 18, 19),
                    7.0);
    truth.SetFactor(E(dev.topology(), 18, 19), E(dev.topology(), 13, 14),
                    5.0);
    return Device(dev.name(), dev.topology(), std::move(qubits),
                  std::move(edges), std::move(truth), dev.traits(),
                  seed ^ 0xDEADBEEFull);
}

Device
MakeJohannesburg(uint64_t seed)
{
    Topology topo(20, {{0, 1},   {1, 2},   {2, 3},   {3, 4},   {0, 5},
                       {4, 9},   {5, 6},   {6, 7},   {7, 8},   {8, 9},
                       {5, 10},  {9, 14},  {10, 11}, {11, 12}, {12, 13},
                       {13, 14}, {10, 15}, {14, 19}, {15, 16}, {16, 17},
                       {17, 18}, {18, 19}});
    const std::vector<std::pair<EdgeId, EdgeId>> pairs = {
        {E(topo, 5, 10), E(topo, 0, 1)},
        {E(topo, 10, 11), E(topo, 5, 6)},
        {E(topo, 13, 14), E(topo, 8, 9)},
        {E(topo, 15, 16), E(topo, 10, 11)},
        {E(topo, 14, 19), E(topo, 17, 18)},
    };
    return MakeSyntheticDevice("ibmq_johannesburg", std::move(topo), pairs,
                               seed);
}

Device
MakeBoeblingen(uint64_t seed)
{
    Topology topo(20, {{0, 1},   {1, 2},   {2, 3},   {3, 4},   {1, 6},
                       {3, 8},   {5, 6},   {6, 7},   {7, 8},   {8, 9},
                       {5, 10},  {7, 12},  {9, 14},  {10, 11}, {11, 12},
                       {12, 13}, {13, 14}, {11, 16}, {13, 18}, {15, 16},
                       {16, 17}, {17, 18}, {18, 19}});
    // Boeblingen shows the most crosstalk-prone regions in Figure 5c;
    // give it seven high-crosstalk pairs.
    const std::vector<std::pair<EdgeId, EdgeId>> pairs = {
        {E(topo, 0, 1), E(topo, 6, 7)},
        {E(topo, 5, 6), E(topo, 1, 2)},
        {E(topo, 7, 12), E(topo, 11, 16)},
        {E(topo, 8, 9), E(topo, 13, 14)},
        {E(topo, 6, 7), E(topo, 3, 8)},
        {E(topo, 15, 16), E(topo, 11, 12)},
        {E(topo, 16, 17), E(topo, 13, 18)},
    };
    return MakeSyntheticDevice("ibmq_boeblingen", std::move(topo), pairs,
                               seed);
}

std::vector<Device>
MakePaperDevices()
{
    std::vector<Device> devices;
    devices.push_back(MakePoughkeepsie());
    devices.push_back(MakeJohannesburg());
    devices.push_back(MakeBoeblingen());
    return devices;
}

Device
MakeLinearDevice(int num_qubits, uint64_t seed, bool with_crosstalk)
{
    XTALK_REQUIRE(num_qubits >= 2, "linear device needs >= 2 qubits");
    std::vector<std::pair<QubitId, QubitId>> edges;
    for (int q = 0; q + 1 < num_qubits; ++q) {
        edges.push_back({q, q + 1});
    }
    Topology topo(num_qubits, std::move(edges));
    std::vector<std::pair<EdgeId, EdgeId>> pairs;
    if (with_crosstalk) {
        // Adjacent (1-hop) coupler pairs: (0-1, 2-3), (4-5, 6-7), ...
        for (EdgeId e = 0; e + 2 < topo.num_edges(); e += 4) {
            pairs.push_back({e, e + 2});
        }
    }
    return MakeSyntheticDevice("line" + std::to_string(num_qubits),
                               std::move(topo), pairs, seed);
}

Device
MakeGridDevice(int rows, int cols, uint64_t seed, bool with_crosstalk)
{
    XTALK_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
    XTALK_REQUIRE(rows * cols >= 2, "grid needs >= 2 qubits");
    auto index = [cols](int r, int c) { return r * cols + c; };
    std::vector<std::pair<QubitId, QubitId>> edges;
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols) {
                edges.push_back({index(r, c), index(r, c + 1)});
            }
            if (r + 1 < rows) {
                edges.push_back({index(r, c), index(r + 1, c)});
            }
        }
    }
    Topology topo(rows * cols, std::move(edges));
    std::vector<std::pair<EdgeId, EdgeId>> pairs;
    if (with_crosstalk) {
        // Sample a handful of 1-hop pairs deterministically.
        Rng rng(seed ^ 0xC0FFEEull);
        auto candidates = topo.EdgePairsAtDistance(1);
        rng.Shuffle(candidates);
        const size_t count = std::min<size_t>(candidates.size(),
                                              topo.num_edges() / 4 + 1);
        pairs.assign(candidates.begin(), candidates.begin() + count);
    }
    return MakeSyntheticDevice(
        "grid" + std::to_string(rows) + "x" + std::to_string(cols),
        std::move(topo), pairs, seed);
}

}  // namespace xtalk
