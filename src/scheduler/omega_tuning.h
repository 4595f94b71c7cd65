/**
 * @file
 * Model-guided selection of the crosstalk weight factor omega.
 *
 * The paper leaves omega as a user knob and shows (Figures 8-9) that the
 * best value depends on the application's crosstalk susceptibility. This
 * utility automates the choice without spending device time: it solves
 * the schedule for each candidate omega and scores the results under the
 * characterized error model (the same model the solver optimizes),
 * returning the schedule with the highest modeled success probability.
 */
#ifndef XTALK_SCHEDULER_OMEGA_TUNING_H
#define XTALK_SCHEDULER_OMEGA_TUNING_H

#include <utility>
#include <vector>

#include "scheduler/analysis.h"
#include "scheduler/portfolio.h"
#include "scheduler/xtalk_scheduler.h"

namespace xtalk {

/** Outcome of an omega sweep. */
struct OmegaSelection {
    double omega = 0.5;
    ScheduledCircuit schedule{1};
    ScheduleErrorEstimate estimate;
    /** The selected solve's ordering artifacts for barrier lowering. */
    std::vector<double> start_ns;
    std::vector<std::pair<GateId, GateId>> candidate_pairs;
    /** (omega, modeled success) for every candidate, in sweep order. */
    std::vector<std::pair<double, double>> sweep;
};

/**
 * Solve the schedule for each candidate omega and pick the one with the
 * highest modeled success probability, ties to the earlier candidate.
 * @p base supplies every other scheduler option; its total_budget_ms
 * can end the sweep early, as in ScheduleForOmegas.
 */
OmegaSelection SelectOmegaByModel(
    const Device& device, const CrosstalkCharacterization& characterization,
    const Circuit& circuit,
    const std::vector<double>& candidates = DefaultOmegaCandidates(),
    const XtalkSchedulerOptions& base = {});

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_OMEGA_TUNING_H
