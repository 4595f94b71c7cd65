/**
 * @file
 * XtalkSched: the paper's crosstalk-adaptive instruction scheduler
 * (Sections 6-7), implemented as an SMT optimization over Z3.
 *
 * Per gate g the solver owns a real start time g.tau; durations come
 * from calibration. Constraints:
 *  - data dependencies (constraint 1) from the circuit DAG;
 *  - overlap indicators o_ij (constraint 2) for every candidate pair:
 *    DAG-concurrent two-qubit gates that pass the paper's high-crosstalk
 *    test (HighCrosstalkCriteria{}, the pruning of CanOlp);
 *  - gate-error assignment over the powerset of each gate's overlap
 *    candidates (constraints 7-8), binding log(g.eps) to the max
 *    conditional error of the overlapping aggressors;
 *  - qubit lifetimes (constraint 9): per qubit, first and last gate are
 *    static (gates on one qubit are totally ordered), so the lifetime is
 *    linear in their taus;
 *  - IBMQ traits: no partial overlap between candidate pairs
 *    (constraints 11-13) and simultaneous readout.
 *
 * Objective (eq. 17, with the decoherence sign corrected so that omega=0
 * reproduces ParSched — see DESIGN.md):
 *
 *     min  omega * sum_g log(g.eps) + (1-omega) * sum_q lifetime_q / T_q
 *
 * Solving. Each circuit is turned once into a solver-neutral XtalkProblem
 * (scheduler/xtalk_problem.h): quantized durations, precedence arcs,
 * readout groups, lifetimes and the eligible pairs. The only
 * combinatorial part is the overlap choice of the encoded pairs. A
 * refinement round that encodes no pair is the lifetime LP, solved
 * exactly in process as a min-cost flow; its answer is the
 * componentwise-earliest optimal schedule, and it serves every omega of
 * a sweep because that argmin ignores omega. A Z3 context is built only
 * on the first round that encodes a pair (refinement found the flow
 * schedule overlapping an eligible pair outside the layer window, or
 * the window held pairs from the start), and refinement continues in
 * Z3 from there. The wall-clock budgets (timeout_ms per solve,
 * total_budget_ms per call) are the only early exit.
 */
#ifndef XTALK_SCHEDULER_XTALK_SCHEDULER_H
#define XTALK_SCHEDULER_XTALK_SCHEDULER_H

#include <utility>
#include <vector>

#include "characterization/characterizer.h"
#include "common/error.h"
#include "scheduler/scheduler.h"

namespace xtalk {

/**
 * The SMT layer failed to produce any usable model: the per-solve
 * timeout or the total budget expired before a model existed, or the
 * underlying solver threw. Deliberately a *user-facing* Error (the
 * budget is configuration, not a bug) and a distinct type so the
 * compiler can catch it and degrade to a non-SMT scheduler while
 * letting genuine InternalErrors propagate. Z3's own exception type
 * never escapes this translation unit.
 */
class SolverFailure : public Error {
  public:
    using Error::Error;
};

/** Tuning knobs for XtalkSched. */
struct XtalkSchedulerOptions {
    /** Crosstalk weight factor omega in [0, 1] (paper eq. 17). */
    double omega = 0.5;
    /** Z3 timeout per solve call, in milliseconds. */
    unsigned timeout_ms = 120000;
    /**
     * Wall-clock budget for one Schedule() call across ALL refinement
     * rounds, in milliseconds; 0 = no overall budget (each round still
     * honours timeout_ms). When the budget runs out mid-refinement the
     * best model so far is used; when it runs out before any model
     * exists, Schedule() throws SolverFailure so the caller can degrade
     * to a cheaper scheduler.
     */
    unsigned total_budget_ms = 0;
    /**
     * Use the paper's explicit powerset encoding of constraints 7-8
     * instead of the default (equivalent-at-optimum) lower-bound
     * encoding. It is exponential in |CanOlp|, so each gate keeps only
     * its five worst partners, and it is not monotone under refinement,
     * so every round that encodes a pair builds a fresh Z3 context. The
     * lower-bound encoding keeps one incremental context for the whole
     * call: rounds re-check it and ω candidates swap objectives under
     * push/pop scopes.
     */
    bool use_powerset_encoding = false;
    /**
     * Only gate pairs whose ASAP layers differ by at most this much
     * become overlap candidates. Gates far apart in the dependency
     * structure never overlap in near-optimal schedules, so this prunes
     * the O(gates^2) candidate set for deep circuits (the "known
     * optimizations for SMT compilers" the paper cites in Section 9.4);
     * <= 0 disables the window. Eligible pairs the solved schedule
     * overlaps outside the window are added by lazy refinement, for at
     * most four extra rounds.
     */
    int max_layer_distance = 6;
};

/** Solve diagnostics from the last Schedule() call. */
struct XtalkSchedulerStats {
    double solve_seconds = 0.0;
    int candidate_pairs = 0;
    int gates_with_candidates = 0;
    int refinement_rounds = 0;
    bool optimal = false;
    /** Z3 contexts constructed (lower-bound encoding: 1; powerset:
     *  one per round that encodes a pair; 0 when every round took the
     *  flow path). */
    int solver_builds = 0;
    /** ω candidates that produced a model (ScheduleForOmegas only). */
    int omegas_solved = 0;
};

/**
 * One ω candidate's solution from ScheduleForOmegas: the schedule plus
 * the ordering artifacts (start times, serialization-candidate pairs)
 * the barrier inserter needs to reproduce it on hardware.
 */
struct OmegaSolveResult {
    double omega = 0.5;
    ScheduledCircuit schedule{1};
    std::vector<double> start_ns;
    std::vector<std::pair<GateId, GateId>> candidate_pairs;
};

/** The crosstalk-adaptive SMT scheduler. */
class XtalkScheduler : public Scheduler {
  public:
    XtalkScheduler(const Device& device,
                   const CrosstalkCharacterization& characterization,
                   XtalkSchedulerOptions options = {});

    ScheduledCircuit Schedule(const Circuit& circuit) override;

    /**
     * Solve the same circuit for several ω candidates in one pass. In
     * the lower-bound encoding (the default) the Z3 context, the
     * dependency/readout constraints, and every pair constraint learned
     * by lazy refinement are shared across candidates: each ω is solved
     * under an `optimize` push/pop scope that swaps only the objective,
     * so later candidates start from everything earlier ones learned
     * instead of rebuilding from scratch.
     *
     * total_budget_ms spans the whole sweep. When the budget expires
     * mid-sweep, the ω candidates already solved are returned (a
     * partial sweep); if no candidate has a model yet, throws
     * SolverFailure. Results are in input ω order, truncated on early
     * exit — never reordered.
     */
    std::vector<OmegaSolveResult>
    ScheduleForOmegas(const Circuit& circuit,
                      const std::vector<double>& omegas);

    std::string name() const override { return "XtalkSched"; }

    /**
     * Schedule and post-process into an executable circuit whose barriers
     * enforce the solver's serialization decisions (paper Section 6's
     * final step). If @p schedule_out is non-null it receives the timed
     * schedule.
     */
    Circuit ScheduleWithBarriers(const Circuit& circuit,
                                 ScheduledCircuit* schedule_out = nullptr);

    const XtalkSchedulerStats& stats() const { return stats_; }

    /**
     * The pruned candidate pair list (gate index pairs) computed for the
     * last scheduled circuit; exposed for the barrier inserter and tests.
     */
    const std::vector<std::pair<GateId, GateId>>& last_candidate_pairs() const
    {
        return last_pairs_;
    }

    /** Start times of the last solve, indexed by original GateId. */
    const std::vector<double>& last_start_times() const
    {
        return last_start_times_;
    }

  private:
    const CrosstalkCharacterization* characterization_;
    XtalkSchedulerOptions options_;
    XtalkSchedulerStats stats_;
    std::vector<std::pair<GateId, GateId>> last_pairs_;
    std::vector<double> last_start_times_;
};

/**
 * Insert barriers into @p circuit, re-ordered by the solver start times,
 * so that every candidate pair the solver serialized stays serialized
 * when the circuit is re-scheduled by a parallelism-maximizing scheduler
 * (the paper's post-processing step).
 */
Circuit InsertOrderingBarriersForCircuit(
    const Circuit& circuit, const std::vector<double>& start_ns,
    const std::vector<std::pair<GateId, GateId>>& candidate_pairs,
    const Device& device);

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_XTALK_SCHEDULER_H
