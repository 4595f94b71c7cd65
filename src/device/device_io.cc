#include "device/device_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace xtalk {

namespace {

/** Read "key value" pairs from the remainder of a line. */
std::map<std::string, double>
ParseKeyValues(std::istringstream& fields, int line_number)
{
    std::map<std::string, double> out;
    std::string key;
    while (fields >> key) {
        double value;
        XTALK_REQUIRE(static_cast<bool>(fields >> value),
                      "line " << line_number << ": key '" << key
                              << "' has no value");
        out[key] = value;
    }
    return out;
}

double
Need(const std::map<std::string, double>& kv, const std::string& key,
     int line_number)
{
    const auto it = kv.find(key);
    XTALK_REQUIRE(it != kv.end(),
                  "line " << line_number << ": missing field '" << key
                          << "'");
    XTALK_REQUIRE(std::isfinite(it->second),
                  "line " << line_number << ": field '" << key
                          << "' is not finite");
    return it->second;
}

/** A strictly positive physical duration/time constant (ns or us). */
double
NeedPositive(const std::map<std::string, double>& kv, const std::string& key,
             int line_number)
{
    const double value = Need(kv, key, line_number);
    XTALK_REQUIRE(value > 0.0, "line " << line_number << ": field '" << key
                                       << "' must be positive, got "
                                       << value);
    return value;
}

/** An error probability: must land in [0, 1]. */
double
NeedErrorRate(const std::map<std::string, double>& kv,
              const std::string& key, int line_number)
{
    const double value = Need(kv, key, line_number);
    XTALK_REQUIRE(value >= 0.0 && value <= 1.0,
                  "line " << line_number << ": field '" << key
                          << "' must be in [0, 1], got " << value);
    return value;
}

}  // namespace

Device
ParseDeviceSpec(const std::string& text, uint64_t drift_seed)
{
    std::istringstream stream(text);
    std::string line;
    int line_number = 0;

    std::string name = "custom";
    int num_qubits = -1;
    DeviceTraits traits;
    std::vector<QubitCalibration> qubits;
    std::vector<std::pair<QubitId, QubitId>> edges;
    std::vector<EdgeCalibration> edge_cal;
    struct XtalkLine {
        QubitId va, vb, aa, ab;
        double factor;
        int line;
    };
    std::vector<XtalkLine> crosstalk;

    while (std::getline(stream, line)) {
        ++line_number;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream fields(line);
        std::string kind;
        if (!(fields >> kind)) {
            continue;
        }
        if (kind == "device") {
            XTALK_REQUIRE(static_cast<bool>(fields >> name),
                          "line " << line_number << ": device needs a name");
        } else if (kind == "qubits") {
            XTALK_REQUIRE(static_cast<bool>(fields >> num_qubits) &&
                              num_qubits > 0,
                          "line " << line_number << ": bad qubit count");
            XTALK_REQUIRE(num_qubits <= kMaxSpecQubits,
                          "line " << line_number << ": qubit count "
                                  << num_qubits << " exceeds the limit of "
                                  << kMaxSpecQubits);
            qubits.assign(num_qubits, QubitCalibration{});
        } else if (kind == "traits") {
            int simultaneous, no_partial;
            XTALK_REQUIRE(
                static_cast<bool>(fields >> simultaneous >> no_partial),
                "line " << line_number << ": traits needs two 0/1 flags");
            traits.simultaneous_readout = simultaneous != 0;
            traits.no_partial_overlap = no_partial != 0;
        } else if (kind == "qubit") {
            int id;
            XTALK_REQUIRE(static_cast<bool>(fields >> id) && id >= 0 &&
                              id < num_qubits,
                          "line " << line_number << ": bad qubit id");
            const auto kv = ParseKeyValues(fields, line_number);
            QubitCalibration cal;
            cal.t1_us = NeedPositive(kv, "t1_us", line_number);
            cal.t2_us = NeedPositive(kv, "t2_us", line_number);
            cal.readout_error = NeedErrorRate(kv, "readout_err", line_number);
            cal.sq_error = NeedErrorRate(kv, "sq_err", line_number);
            cal.sq_duration_ns = NeedPositive(kv, "sq_ns", line_number);
            cal.readout_duration_ns =
                NeedPositive(kv, "readout_ns", line_number);
            qubits.at(id) = cal;
        } else if (kind == "edge") {
            int a, b;
            XTALK_REQUIRE(static_cast<bool>(fields >> a >> b),
                          "line " << line_number << ": edge needs qubits");
            const auto kv = ParseKeyValues(fields, line_number);
            edges.push_back({a, b});
            EdgeCalibration cal;
            cal.cx_error = NeedErrorRate(kv, "cx_err", line_number);
            cal.cx_duration_ns = NeedPositive(kv, "cx_ns", line_number);
            edge_cal.push_back(cal);
        } else if (kind == "crosstalk") {
            XtalkLine x;
            x.line = line_number;
            XTALK_REQUIRE(
                static_cast<bool>(fields >> x.va >> x.vb >> x.aa >> x.ab),
                "line " << line_number << ": crosstalk needs 4 qubits");
            const auto kv = ParseKeyValues(fields, line_number);
            x.factor = Need(kv, "factor", line_number);
            XTALK_REQUIRE(x.factor >= 1.0,
                          "line " << line_number
                                  << ": crosstalk factor must be >= 1 (it "
                                     "scales the victim's error), got "
                                  << x.factor);
            crosstalk.push_back(x);
        } else {
            XTALK_REQUIRE(false, "line " << line_number
                                         << ": unknown record '" << kind
                                         << "'");
        }
    }
    XTALK_REQUIRE(num_qubits > 0, "spec is missing the qubits declaration");
    XTALK_REQUIRE(!edges.empty(), "spec declares no couplers");

    Topology topology(num_qubits, edges);
    CrosstalkGroundTruth truth;
    for (const XtalkLine& x : crosstalk) {
        const EdgeId victim = topology.FindEdge(x.va, x.vb);
        const EdgeId aggressor = topology.FindEdge(x.aa, x.ab);
        XTALK_REQUIRE(victim >= 0 && aggressor >= 0,
                      "line " << x.line
                              << ": crosstalk names an undeclared coupler");
        truth.SetFactor(victim, aggressor, x.factor);
    }
    return Device(name, std::move(topology), std::move(qubits),
                  std::move(edge_cal), std::move(truth), traits, drift_seed);
}

std::string
SerializeDeviceSpec(const Device& device)
{
    std::ostringstream oss;
    oss << std::setprecision(17);
    oss << "# xtalk device spec v1\n";
    oss << "device " << device.name() << "\n";
    oss << "qubits " << device.num_qubits() << "\n";
    oss << "traits " << (device.traits().simultaneous_readout ? 1 : 0) << " "
        << (device.traits().no_partial_overlap ? 1 : 0) << "\n";
    const auto& qubits = device.qubit_calibrations();
    for (int q = 0; q < device.num_qubits(); ++q) {
        const QubitCalibration& cal = qubits[q];
        oss << "qubit " << q << " t1_us " << cal.t1_us << " t2_us "
            << cal.t2_us << " readout_err " << cal.readout_error
            << " sq_err " << cal.sq_error << " sq_ns " << cal.sq_duration_ns
            << " readout_ns " << cal.readout_duration_ns << "\n";
    }
    const Topology& topo = device.topology();
    const auto& edge_cal = device.edge_calibrations();
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        oss << "edge " << topo.edge(e).a << " " << topo.edge(e).b
            << " cx_err " << edge_cal[e].cx_error << " cx_ns "
            << edge_cal[e].cx_duration_ns << "\n";
    }
    for (const auto& [pair, factor] : device.ground_truth().entries()) {
        const Edge& victim = topo.edge(pair.first);
        const Edge& aggressor = topo.edge(pair.second);
        oss << "crosstalk " << victim.a << " " << victim.b << " "
            << aggressor.a << " " << aggressor.b << " factor " << factor
            << "\n";
    }
    return oss.str();
}

Device
LoadDeviceSpec(const std::string& path, uint64_t drift_seed)
{
    std::ifstream file(path);
    XTALK_REQUIRE(file.good(), "cannot open " << path << " for reading");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return ParseDeviceSpec(buffer.str(), drift_seed);
}

}  // namespace xtalk
