/**
 * @file
 * Schedule quality analysis under the paper's error model: the product
 * of crosstalk-aware gate success rates and per-qubit decoherence
 * survival (objective function of Section 7.3, evaluated rather than
 * optimized). Two data sources are supported:
 *
 *  - kCharacterized: conditional rates from a CrosstalkCharacterization
 *    (the compiler's view — what XtalkSched optimizes);
 *  - kGroundTruth: the device's hidden crosstalk model (an oracle view
 *    for tests and for quantifying characterization error).
 */
#ifndef XTALK_SCHEDULER_ANALYSIS_H
#define XTALK_SCHEDULER_ANALYSIS_H

#include "characterization/characterizer.h"
#include "circuit/schedule.h"
#include "device/device.h"

namespace xtalk {

/** Which conditional-error data to evaluate against. */
enum class ErrorDataSource { kCharacterized, kGroundTruth };

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
     *  because of concurrent aggressors (high-crosstalk overlaps). */
    int crosstalk_overlaps = 0;

    /**
     * The paper's weighted objective (eq. 17 with the sign of the
     * decoherence term corrected; see DESIGN.md): lower is better.
     */
    double Objective(double omega) const;
};

/**
 * Evaluate a schedule under the model. @p characterization may be null
 * only with kGroundTruth.
 */
ScheduleErrorEstimate EstimateScheduleError(
    const ScheduledCircuit& schedule, const Device& device,
    const CrosstalkCharacterization* characterization,
    ErrorDataSource source = ErrorDataSource::kCharacterized);

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_ANALYSIS_H
