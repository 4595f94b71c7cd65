#include "scheduler/analysis.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

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

namespace {

/** Independent rate of coupler @p edge: the characterized estimate
 *  under kCharacterized when one exists, the calibration otherwise. */
double
IndependentRate(EdgeId edge, const Device& device,
                const CrosstalkCharacterization* characterization,
                ErrorDataSource source)
{
    if (source == ErrorDataSource::kCharacterized && characterization) {
        return characterization->IndependentOrCalibratedError(edge, device);
    }
    return device.CxError(edge);
}

/**
 * Effective error rate of gate @p index in the schedule: independent
 * rate, or the max conditional rate over overlapping two-qubit gates
 * (constraint 7 semantics).
 */
double
ModeledGateError(const ScheduledCircuit& schedule, int index,
                 const Device& device,
                 const CrosstalkCharacterization* characterization,
                 ErrorDataSource source)
{
    const TimedGate& tg = schedule.gates().at(index);
    const Gate& gate = tg.gate;
    if (gate.IsBarrier() || gate.IsMeasure()) {
        return 0.0;
    }
    if (!gate.IsTwoQubitUnitary()) {
        return device.GateError(gate);
    }
    const EdgeId victim =
        device.topology().FindEdge(gate.qubits[0], gate.qubits[1]);
    XTALK_REQUIRE(victim >= 0, "two-qubit gate on uncoupled qubits");

    const double independent =
        IndependentRate(victim, device, characterization, source);
    auto conditional = [&](EdgeId aggressor) {
        if (source == ErrorDataSource::kGroundTruth) {
            return device.ConditionalCxError(victim, aggressor);
        }
        XTALK_REQUIRE(characterization,
                      "characterized analysis needs characterization data");
        if (characterization->HasConditionalError(victim, aggressor)) {
            return characterization->ConditionalError(victim, aggressor);
        }
        return independent;
    };

    double err = independent;
    for (int j : schedule.OverlappingTwoQubitGates(index)) {
        const Gate& other = schedule.gates()[j].gate;
        const EdgeId aggressor =
            device.topology().FindEdge(other.qubits[0], other.qubits[1]);
        if (aggressor >= 0 && aggressor != victim) {
            err = std::max(err, conditional(aggressor));
        }
    }
    return err;
}

}  // namespace

ScheduleErrorEstimate
EstimateScheduleError(const ScheduledCircuit& schedule, const Device& device,
                      const CrosstalkCharacterization* characterization,
                      ErrorDataSource source)
{
    ScheduleErrorEstimate estimate;
    estimate.duration_ns = schedule.TotalDuration();
    for (int i = 0; i < schedule.size(); ++i) {
        const Gate& gate = schedule.gates()[i].gate;
        if (gate.IsBarrier() || gate.IsMeasure()) {
            continue;
        }
        const double err =
            ModeledGateError(schedule, i, device, characterization, source);
        if (gate.IsTwoQubitUnitary()) {
            const EdgeId e =
                device.topology().FindEdge(gate.qubits[0], gate.qubits[1]);
            const double base =
                IndependentRate(e, device, characterization, source);
            if (err > base * 2.0) {
                ++estimate.crosstalk_overlaps;
            }
        }
        estimate.log_gate_success += std::log(std::max(1e-12, 1.0 - err));
    }
    for (QubitId q = 0; q < schedule.num_qubits(); ++q) {
        const double lifetime = schedule.QubitLifetime(q);
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
