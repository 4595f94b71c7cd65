#include "circuit/circuit.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace xtalk {

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits)
{
    XTALK_REQUIRE(num_qubits > 0, "circuit needs at least one qubit, got "
                                      << num_qubits);
}

const Gate&
Circuit::gate(GateId id) const
{
    XTALK_REQUIRE(id >= 0 && id < size(), "gate id " << id << " out of range");
    return gates_[id];
}

void
Circuit::Validate(const Gate& gate) const
{
    const int expected_qubits = GateKindNumQubits(gate.kind);
    if (expected_qubits >= 0) {
        XTALK_REQUIRE(gate.NumQubits() == expected_qubits,
                      xtalk::ToString(gate) << ": expected " << expected_qubits
                                     << " qubits");
    } else {
        XTALK_REQUIRE(!gate.qubits.empty(), "barrier needs at least 1 qubit");
    }
    XTALK_REQUIRE(static_cast<int>(gate.params.size()) ==
                      GateKindNumParams(gate.kind),
                  xtalk::ToString(gate) << ": wrong parameter count");
    // Repeats: a scan of the earlier qubits for one- and two-qubit gates,
    // a bitmap for wide barriers.
    std::vector<char> seen;
    if (gate.qubits.size() > 8) {
        seen.assign(num_qubits_, 0);
    }
    for (auto it = gate.qubits.begin(); it != gate.qubits.end(); ++it) {
        const QubitId q = *it;
        XTALK_REQUIRE(q >= 0 && q < num_qubits_,
                      "qubit " << q << " out of range [0, " << num_qubits_
                               << ")");
        const bool repeated =
            seen.empty() ? std::find(gate.qubits.begin(), it, q) != it
                         : std::exchange(seen[q], 1) != 0;
        XTALK_REQUIRE(!repeated, "duplicate qubit "
                                     << q << " in " << xtalk::ToString(gate));
    }
    if (gate.IsMeasure()) {
        XTALK_REQUIRE(gate.cbit >= 0, "measure needs a classical bit");
    }
}

GateId
Circuit::Add(Gate gate)
{
    Validate(gate);
    if (gate.IsMeasure()) {
        num_clbits_ = std::max(num_clbits_, gate.cbit + 1);
    }
    gates_.push_back(std::move(gate));
    return static_cast<GateId>(gates_.size()) - 1;
}

Circuit&
Circuit::I(QubitId q)
{
    Add({GateKind::kI, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::X(QubitId q)
{
    Add({GateKind::kX, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::Y(QubitId q)
{
    Add({GateKind::kY, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::Z(QubitId q)
{
    Add({GateKind::kZ, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::H(QubitId q)
{
    Add({GateKind::kH, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::S(QubitId q)
{
    Add({GateKind::kS, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::Sdg(QubitId q)
{
    Add({GateKind::kSdg, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::T(QubitId q)
{
    Add({GateKind::kT, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::Tdg(QubitId q)
{
    Add({GateKind::kTdg, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::SX(QubitId q)
{
    Add({GateKind::kSX, {q}, {}, -1});
    return *this;
}

Circuit&
Circuit::RX(double theta, QubitId q)
{
    Add({GateKind::kRX, {q}, {theta}, -1});
    return *this;
}

Circuit&
Circuit::RY(double theta, QubitId q)
{
    Add({GateKind::kRY, {q}, {theta}, -1});
    return *this;
}

Circuit&
Circuit::RZ(double theta, QubitId q)
{
    Add({GateKind::kRZ, {q}, {theta}, -1});
    return *this;
}

Circuit&
Circuit::U1(double lambda, QubitId q)
{
    Add({GateKind::kU1, {q}, {lambda}, -1});
    return *this;
}

Circuit&
Circuit::U2(double phi, double lambda, QubitId q)
{
    Add({GateKind::kU2, {q}, {phi, lambda}, -1});
    return *this;
}

Circuit&
Circuit::U3(double theta, double phi, double lambda, QubitId q)
{
    Add({GateKind::kU3, {q}, {theta, phi, lambda}, -1});
    return *this;
}

Circuit&
Circuit::CX(QubitId control, QubitId target)
{
    Add({GateKind::kCX, {control, target}, {}, -1});
    return *this;
}

Circuit&
Circuit::CZ(QubitId a, QubitId b)
{
    Add({GateKind::kCZ, {a, b}, {}, -1});
    return *this;
}

Circuit&
Circuit::Swap(QubitId a, QubitId b)
{
    Add({GateKind::kSwap, {a, b}, {}, -1});
    return *this;
}

Circuit&
Circuit::Barrier(const std::vector<QubitId>& qubits)
{
    Add({GateKind::kBarrier, Gate::Qubits(qubits.begin(), qubits.end()), {},
         -1});
    return *this;
}

Circuit&
Circuit::BarrierAll()
{
    Gate barrier{GateKind::kBarrier, {}, {}, -1};
    barrier.qubits.reserve(static_cast<size_t>(num_qubits_));
    for (QubitId q = 0; q < num_qubits_; ++q) {
        barrier.qubits.push_back(q);
    }
    Add(std::move(barrier));
    return *this;
}

Circuit&
Circuit::Measure(QubitId q, ClbitId c)
{
    Add({GateKind::kMeasure, {q}, {}, c});
    return *this;
}

Circuit&
Circuit::MeasureAll()
{
    for (QubitId q = 0; q < num_qubits_; ++q) {
        Measure(q, q);
    }
    return *this;
}

Circuit&
Circuit::Append(const Circuit& other)
{
    XTALK_REQUIRE(other.num_qubits_ <= num_qubits_,
                  "appended circuit is wider than the target register");
    for (const Gate& g : other.gates_) {
        Add(g);
    }
    return *this;
}

Circuit&
Circuit::AppendMapped(const Circuit& other,
                      const std::vector<QubitId>& qubit_map, int clbit_offset)
{
    XTALK_REQUIRE(static_cast<int>(qubit_map.size()) == other.num_qubits_,
                  "qubit map size " << qubit_map.size() << " != "
                                    << other.num_qubits_ << " qubits");
    for (Gate g : other.gates_) {
        for (QubitId& q : g.qubits) {
            q = qubit_map[q];
        }
        if (g.IsMeasure()) {
            g.cbit += clbit_offset;
        }
        Add(std::move(g));
    }
    return *this;
}

int
Circuit::CountKind(GateKind kind) const
{
    int n = 0;
    for (const Gate& g : gates_) {
        if (g.kind == kind) {
            ++n;
        }
    }
    return n;
}

int
Circuit::CountTwoQubitGates() const
{
    int n = 0;
    for (const Gate& g : gates_) {
        if (g.IsTwoQubitUnitary()) {
            ++n;
        }
    }
    return n;
}

std::vector<QubitId>
Circuit::ActiveQubits() const
{
    std::set<QubitId> used;
    for (const Gate& g : gates_) {
        used.insert(g.qubits.begin(), g.qubits.end());
    }
    return {used.begin(), used.end()};
}

int
Circuit::Depth() const
{
    std::vector<int> level(num_qubits_, 0);
    for (const Gate& g : gates_) {
        int start = 0;
        for (QubitId q : g.qubits) {
            start = std::max(start, level[q]);
        }
        const int finish = start + (g.IsBarrier() ? 0 : 1);
        for (QubitId q : g.qubits) {
            level[q] = finish;
        }
    }
    return *std::max_element(level.begin(), level.end());
}

std::string
Circuit::ToString() const
{
    std::ostringstream oss;
    oss << "circuit(" << num_qubits_ << " qubits, " << gates_.size()
        << " gates)\n";
    for (const Gate& g : gates_) {
        oss << "  " << xtalk::ToString(g) << "\n";
    }
    return oss.str();
}

void
Circuit::RequireTerminalMeasures() const
{
    std::vector<GateId> measured_by(num_qubits_, -1);
    for (GateId g = 0; g < size(); ++g) {
        const Gate& gate = gates_[g];
        if (gate.IsBarrier()) {
            continue;
        }
        for (QubitId q : gate.qubits) {
            XTALK_REQUIRE(measured_by[q] < 0,
                          "qubit " << q << " is used by '"
                                   << xtalk::ToString(gate) << "' after '"
                                   << xtalk::ToString(gates_[measured_by[q]])
                                   << "'; only terminal measurements are "
                                      "supported");
        }
        if (gate.IsMeasure()) {
            measured_by[gate.qubits[0]] = g;
        }
    }
}

}  // namespace xtalk
