#include "circuit/schedule.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/error.h"

namespace xtalk {

namespace {
constexpr double kTimeEps = 1e-9;
}

bool
TimedGate::Overlaps(const TimedGate& a, const TimedGate& b)
{
    return a.start_ns < b.end_ns() - kTimeEps &&
           b.start_ns < a.end_ns() - kTimeEps;
}

ScheduledCircuit::ScheduledCircuit(int num_qubits) : num_qubits_(num_qubits)
{
    XTALK_REQUIRE(num_qubits > 0, "schedule needs at least one qubit");
}

void
ScheduledCircuit::Add(Gate gate, double start_ns, double duration_ns)
{
    XTALK_REQUIRE(start_ns >= -kTimeEps, "negative start time " << start_ns);
    XTALK_REQUIRE(duration_ns >= 0.0, "negative duration " << duration_ns);
    for (QubitId q : gate.qubits) {
        XTALK_REQUIRE(q >= 0 && q < num_qubits_,
                      "qubit " << q << " out of range");
    }
    TimedGate timed{std::move(gate), std::max(start_ns, 0.0), duration_ns};
    const auto pos = std::upper_bound(
        gates_.begin(), gates_.end(), timed,
        [](const TimedGate& a, const TimedGate& b) {
            return a.start_ns < b.start_ns;
        });
    gates_.insert(pos, std::move(timed));
}

double
ScheduledCircuit::TotalDuration() const
{
    double makespan = 0.0;
    for (const TimedGate& g : gates_) {
        makespan = std::max(makespan, g.end_ns());
    }
    return makespan;
}

double
ScheduledCircuit::FirstStartOn(QubitId q) const
{
    double first = -1.0;
    for (const TimedGate& g : gates_) {
        if (g.gate.IsBarrier()) {
            continue;
        }
        for (QubitId gq : g.gate.qubits) {
            if (gq == q) {
                if (first < 0.0 || g.start_ns < first) {
                    first = g.start_ns;
                }
            }
        }
    }
    return first;
}

double
ScheduledCircuit::LastEndOn(QubitId q) const
{
    double last = -1.0;
    for (const TimedGate& g : gates_) {
        if (g.gate.IsBarrier()) {
            continue;
        }
        for (QubitId gq : g.gate.qubits) {
            if (gq == q) {
                last = std::max(last, g.end_ns());
            }
        }
    }
    return last;
}

double
ScheduledCircuit::QubitLifetime(QubitId q) const
{
    const double first = FirstStartOn(q);
    if (first < 0.0) {
        return 0.0;
    }
    return LastEndOn(q) - first;
}

Circuit
ScheduledCircuit::ToCircuit() const
{
    Circuit out(num_qubits_);
    for (const TimedGate& g : gates_) {
        out.Add(g.gate);
    }
    return out;
}

std::string
ScheduledCircuit::ToString() const
{
    std::ostringstream oss;
    oss << "schedule(" << num_qubits_ << " qubits, duration "
        << TotalDuration() << " ns)\n";
    for (const TimedGate& g : gates_) {
        oss << "  [" << std::setw(8) << g.start_ns << ", " << std::setw(8)
            << g.end_ns() << ") " << xtalk::ToString(g.gate) << "\n";
    }
    return oss.str();
}

}  // namespace xtalk
