#include "scheduler/omega_tuning.h"

#include "common/error.h"

namespace xtalk {

OmegaSelection
SelectOmegaByModel(const Device& device,
                   const CrosstalkCharacterization& characterization,
                   const Circuit& circuit,
                   const std::vector<double>& candidates,
                   const XtalkSchedulerOptions& base)
{
    XTALK_REQUIRE(!candidates.empty(), "need at least one candidate omega");
    // One warm-started sweep: candidates share the solver context and
    // everything lazy refinement learned (see ScheduleForOmegas), so
    // this is much cheaper than solving each candidate from scratch.
    XtalkScheduler scheduler(device, characterization, base);
    std::vector<OmegaSolveResult> solved =
        scheduler.ScheduleForOmegas(circuit, candidates);
    OmegaSelection best;
    bool have_best = false;
    for (OmegaSolveResult& result : solved) {
        const ScheduleErrorEstimate estimate =
            EstimateScheduleError(result.schedule, device, characterization);
        best.sweep.push_back({result.omega, estimate.success_probability});
        if (!have_best ||
            estimate.success_probability > best.estimate.success_probability) {
            best.omega = result.omega;
            best.schedule = std::move(result.schedule);
            best.estimate = estimate;
            best.start_ns = std::move(result.start_ns);
            best.candidate_pairs = std::move(result.candidate_pairs);
            have_best = true;
        }
    }
    return best;
}

}  // namespace xtalk
