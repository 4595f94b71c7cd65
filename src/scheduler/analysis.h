/**
 * @file
 * Schedule quality analysis under the paper's error model: the product
 * of crosstalk-aware gate success rates and per-qubit decoherence
 * survival (objective function of Section 7.3, evaluated rather than
 * optimized). The gate errors follow the rule the simulators run
 * (OverlapGateErrors, sim/noisy_simulator.h) at a characterization's
 * rates: the compiler's measured view, or the device's hidden one
 * through GroundTruthCharacterization, at which the score's gate term
 * equals the simulators' bit for bit.
 */
#ifndef XTALK_SCHEDULER_ANALYSIS_H
#define XTALK_SCHEDULER_ANALYSIS_H

#include "characterization/characterizer.h"
#include "circuit/schedule.h"
#include "device/device.h"

namespace xtalk {

/** Decomposed schedule error estimate. */
struct ScheduleErrorEstimate {
    /** Sum of log(1 - eps_g) over unitary gates (crosstalk-aware). */
    double log_gate_success = 0.0;
    /** Sum of -lifetime_q / T_q over qubits. */
    double log_decoherence_success = 0.0;
    /** exp of the two terms combined: modeled success probability. */
    double success_probability = 0.0;
    /** Makespan in ns. */
    double duration_ns = 0.0;
    /** Gates whose modeled error exceeds 2x their independent rate
     *  because of concurrent aggressors: a count of gates, not of
     *  pairs, and not the scheduler's high-crosstalk test. */
    int crosstalk_overlaps = 0;

    /**
     * The paper's weighted objective (eq. 17 with the sign of the
     * decoherence term corrected; see DESIGN.md): lower is better.
     */
    double Objective(double omega) const;
};

/**
 * Evaluate a schedule under the model at @p characterization's rates. A
 * coupler it did not measure runs at its calibrated rate, and an ordered
 * pair it did not measure at the victim's independent rate.
 */
ScheduleErrorEstimate EstimateScheduleError(
    const ScheduledCircuit& schedule, const Device& device,
    const CrosstalkCharacterization& characterization);

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_ANALYSIS_H
