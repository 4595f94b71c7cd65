/**
 * @file
 * Simulated-annealing crosstalk-aware scheduler ("AnnealSched").
 *
 * A third classical formulation of the paper's scheduling problem,
 * between GreedySched (one forward pass) and XtalkSched (exact SMT):
 * the decision space is the set of *serialization decisions* — for each
 * DAG-concurrent pair of two-qubit gates whose couplers show high
 * crosstalk (the same eligibility test XtalkSched encodes), either let
 * them overlap or force the later gate to wait. Every decision vector
 * maps deterministically to an ASAP list schedule, which is scored with
 * the shared cost model in scheduler/analysis.h; Metropolis-accepted
 * single-decision flips with geometric cooling walk the space for a
 * fixed number of iterations.
 *
 * Everything is seeded (common/rng.h), so a given (circuit, ω) pair
 * always produces the same schedule — the property the scheduler
 * portfolio relies on for bit-identical winners at any thread count.
 * The only early exit is the wall-clock budget: it is polled every
 * eight iterations and the best schedule found so far is returned.
 *
 * Fault site: "sched.anneal", checked once per Schedule() call.
 */
#ifndef XTALK_SCHEDULER_ANNEAL_SCHEDULER_H
#define XTALK_SCHEDULER_ANNEAL_SCHEDULER_H

#include "characterization/characterizer.h"
#include "scheduler/scheduler.h"

namespace xtalk {

/** Annealing knobs. The fixed schedule anneals a mid-size circuit in a
 *  few ms. */
struct AnnealSchedulerOptions {
    /** Crosstalk-vs-decoherence weight, as in XtalkSchedulerOptions. */
    double omega = 0.5;
    /** Wall-clock bound for the annealing loop; 0 = unbounded. */
    unsigned budget_ms = 0;
};

/** Outcome counters of the last Schedule() call. */
struct AnnealSchedulerStats {
    /** Eligible high-crosstalk pairs (decision-vector length). */
    int candidate_pairs = 0;
    /** Iterations actually run (fewer than 300 if the budget expired). */
    int iterations_run = 0;
    /** Accepted flips, including uphill Metropolis accepts. */
    int accepted = 0;
    /** Serialization decisions active in the returned schedule. */
    int serialized = 0;
    /** True when the loop stopped on budget expiry. */
    bool cancelled = false;
};

/** Seeded simulated-annealing scheduler; see the file comment. */
class AnnealScheduler : public Scheduler {
  public:
    AnnealScheduler(const Device& device,
                    const CrosstalkCharacterization& characterization,
                    AnnealSchedulerOptions options = {});

    ScheduledCircuit Schedule(const Circuit& circuit) override;

    std::string name() const override { return "AnnealSched"; }

    const AnnealSchedulerStats& stats() const { return stats_; }

  private:
    const CrosstalkCharacterization* characterization_;
    AnnealSchedulerOptions options_;
    AnnealSchedulerStats stats_;
};

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_ANNEAL_SCHEDULER_H
