#include "scheduler/analysis.h"

#include <algorithm>
#include <cmath>

#include "sim/noisy_simulator.h"

namespace xtalk {

double
ScheduleErrorEstimate::Objective(double omega) const
{
    // log_gate_success ~ sum log(1-eps); the paper's sum of log eps moves
    // identically (both improve as eps shrinks), so we use the success
    // form, which stays finite for eps -> 0. Decoherence enters as the
    // positive penalty sum(lifetime/T) = -log_decoherence_success.
    return omega * (-log_gate_success) +
           (1.0 - omega) * (-log_decoherence_success);
}

ScheduleErrorEstimate
EstimateScheduleError(const ScheduledCircuit& schedule, const Device& device,
                      const CrosstalkCharacterization& characterization)
{
    const auto independent = [&](EdgeId edge) {
        return characterization.IndependentOrCalibratedError(edge, device);
    };
    const std::vector<double> errors = OverlapGateErrors(
        schedule, device, independent, [&](EdgeId victim, EdgeId aggressor) {
            const auto& measured = characterization.conditional_entries();
            const auto it = measured.find({victim, aggressor});
            return it != measured.end() ? it->second : independent(victim);
        });

    // One pass: the gate terms, the doubled-error count, the makespan
    // and each qubit's first start and last end over its non-barrier
    // gates (paper constraint 9).
    ScheduleErrorEstimate estimate;
    std::vector<double> first(schedule.num_qubits(), -1.0);
    std::vector<double> last(schedule.num_qubits(), -1.0);
    const std::vector<TimedGate>& gates = schedule.gates();
    for (size_t i = 0; i < gates.size(); ++i) {
        const TimedGate& tg = gates[i];
        estimate.duration_ns = std::max(estimate.duration_ns, tg.end_ns());
        if (tg.gate.IsBarrier()) {
            continue;
        }
        for (QubitId q : tg.gate.qubits) {
            if (first[q] < 0.0 || tg.start_ns < first[q]) {
                first[q] = tg.start_ns;
            }
            last[q] = std::max(last[q], tg.end_ns());
        }
        if (tg.gate.IsMeasure()) {
            continue;
        }
        if (tg.gate.IsTwoQubitUnitary()) {
            const EdgeId edge = device.topology().FindEdge(tg.gate.qubits[0],
                                                           tg.gate.qubits[1]);
            if (errors[i] > independent(edge) * 2.0) {
                ++estimate.crosstalk_overlaps;
            }
        }
        estimate.log_gate_success +=
            std::log(std::max(1e-12, 1.0 - errors[i]));
    }
    for (QubitId q = 0; q < schedule.num_qubits(); ++q) {
        const double lifetime = first[q] < 0.0 ? 0.0 : last[q] - first[q];
        if (lifetime > 0.0) {
            estimate.log_decoherence_success -=
                lifetime / device.CoherenceTimeNs(q);
        }
    }
    estimate.success_probability = std::exp(estimate.log_gate_success +
                                            estimate.log_decoherence_success);
    return estimate;
}

}  // namespace xtalk
