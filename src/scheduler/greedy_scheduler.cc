#include "scheduler/greedy_scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace xtalk {

GreedyXtalkScheduler::GreedyXtalkScheduler(
    const Device& device, const CrosstalkCharacterization& characterization,
    double omega)
    : Scheduler(device), characterization_(&characterization), omega_(omega)
{
    XTALK_REQUIRE(omega_ >= 0.0 && omega_ <= 1.0, "omega outside [0, 1]");
}

ScheduledCircuit
GreedyXtalkScheduler::Schedule(const Circuit& circuit)
{
    struct Placed {
        Gate gate;
        EdgeId edge;
        double start;
        double duration;
    };
    std::vector<Placed> placed;
    std::vector<Gate> measures;
    std::vector<double> ready(circuit.num_qubits(), 0.0);

    for (const Gate& g : circuit.gates()) {
        if (g.IsMeasure()) {
            measures.push_back(g);
            continue;
        }
        double start = 0.0;
        for (QubitId q : g.qubits) {
            start = std::max(start, ready[q]);
        }
        const double duration =
            g.IsBarrier() ? 0.0 : device_->GateDuration(g);
        EdgeId edge = -1;
        if (g.IsTwoQubitUnitary()) {
            edge = device_->topology().FindEdge(g.qubits[0], g.qubits[1]);
            XTALK_REQUIRE(edge >= 0, "two-qubit gate on uncoupled qubits");
            // Repeatedly delay past overlapping high-crosstalk partners
            // while the modeled tradeoff favors serialization.
            bool moved = true;
            while (moved) {
                moved = false;
                for (const Placed& p : placed) {
                    if (p.edge < 0 || p.edge == edge) {
                        continue;
                    }
                    const bool overlaps =
                        start < p.start + p.duration - 1e-9 &&
                        p.start < start + duration - 1e-9;
                    if (!overlaps) {
                        continue;
                    }
                    if (!characterization_->IsHighCrosstalk(edge,
                                                            p.edge)) {
                        continue;
                    }
                    const double cond =
                        characterization_->ConditionalError(edge, p.edge);
                    const double indep =
                        characterization_->IndependentOrCalibratedError(
                            edge, *device_);
                    // Crosstalk penalty (log-error increase) vs the
                    // decoherence cost of pushing this gate later.
                    const double delay = p.start + p.duration - start;
                    double decoherence_cost = 0.0;
                    for (QubitId q : g.qubits) {
                        decoherence_cost +=
                            delay / device_->CoherenceTimeNs(q);
                    }
                    const double crosstalk_gain =
                        std::log(cond) - std::log(indep);
                    if (omega_ * crosstalk_gain >
                        (1.0 - omega_) * decoherence_cost) {
                        start = p.start + p.duration;
                        moved = true;
                    }
                }
            }
        }
        if (!g.IsBarrier()) {
            placed.push_back({g, edge, start, duration});
        }
        for (QubitId q : g.qubits) {
            ready[q] = std::max(ready[q], start + duration);
        }
    }

    ScheduledCircuit schedule(circuit.num_qubits());
    for (const Placed& p : placed) {
        schedule.Add(p.gate, p.start, p.duration);
    }
    AppendMeasures(&schedule, *device_, measures, ready);
    return schedule;
}

}  // namespace xtalk
