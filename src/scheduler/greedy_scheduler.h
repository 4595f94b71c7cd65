/**
 * @file
 * GreedySched: a polynomial-time heuristic alternative to the SMT
 * scheduler, used as an ablation (how much of XtalkSched's benefit needs
 * an optimal solver?) and as a fallback for very large circuits.
 *
 * Forward list scheduling: each gate is placed ASAP, but a two-qubit
 * gate that would overlap an already-placed high-crosstalk partner
 * (the paper's test, HighCrosstalkCriteria{}) is delayed past it when
 * the ω-weighted crosstalk penalty outweighs the (1 - ω)-weighted
 * decoherence cost of the delay — a local, single-pass version of the
 * SMT objective.
 */
#ifndef XTALK_SCHEDULER_GREEDY_SCHEDULER_H
#define XTALK_SCHEDULER_GREEDY_SCHEDULER_H

#include "characterization/characterizer.h"
#include "scheduler/scheduler.h"

namespace xtalk {

/** Greedy crosstalk-aware list scheduler. */
class GreedyXtalkScheduler : public Scheduler {
  public:
    /** @p omega in [0, 1] weighs crosstalk against decoherence, as
     *  XtalkSchedulerOptions::omega does for XtalkSched. */
    GreedyXtalkScheduler(const Device& device,
                         const CrosstalkCharacterization& characterization,
                         double omega = 0.5);

    ScheduledCircuit Schedule(const Circuit& circuit) override;
    std::string name() const override { return "GreedySched"; }

  private:
    const CrosstalkCharacterization* characterization_;
    double omega_;
};

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_GREEDY_SCHEDULER_H
