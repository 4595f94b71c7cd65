/**
 * @file
 * XtalkSched's solver-neutral scheduling problem, built once per
 * circuit, and the two ways of solving it. Not part of the public
 * scheduler API; AnnealSched also takes its decision space, the
 * eligible pairs, from here.
 *
 *  - SolveLifetimeFlow: the exact in-process solve for rounds that
 *    encode no crosstalk pair. The problem is then a linear program
 *    over start times,
 *        min  sum_q (tau_last(q) + d_last(q) - tau_first(q)) / T_q
 *    under difference constraints (precedence, simultaneous readout).
 *    Its constraint matrix is a network matrix, so its dual is a
 *    min-cost flow (each qubit ships 1/T_q from its first gate to its
 *    last gate, earning the durations along the way) and the optimum is
 *    integral in 0.01 ns units.
 *  - SolveXtalkProblemWithZ3: one from-scratch Z3 round over the same
 *    problem with a given set of encoded pairs, the round the scheduler
 *    builds in the powerset encoding. With no pair encoded it is the
 *    lifetime LP, and the tests use it as the flow solve's oracle.
 */
#ifndef XTALK_SCHEDULER_XTALK_PROBLEM_H
#define XTALK_SCHEDULER_XTALK_PROBLEM_H

#include <utility>
#include <vector>

#include "characterization/characterizer.h"
#include "circuit/circuit.h"
#include "device/device.h"
#include "scheduler/xtalk_scheduler.h"

namespace xtalk {

/** Everything any solver needs to schedule one circuit. */
struct XtalkProblem {
    /** One qubit's lifetime term of the objective. */
    struct Lifetime {
        /** First and last non-barrier gate on the qubit. */
        GateId first = -1;
        GateId last = -1;
        /** Coherence time T_q in ns, quantized to 0.01 ns; the term's
         *  weight is 1 / coherence_ns. */
        double coherence_ns = 0.0;
    };

    /** A DAG-concurrent high-crosstalk 2q gate pair (i < j). */
    struct Pair {
        GateId i = -1;
        GateId j = -1;
        /** log E(i|j) and log E(j|i), clamped away from 0 and 1. */
        double log_conditional_ij = 0.0;
        double log_conditional_ji = 0.0;
    };

    int n = 0;
    /** Per gate, in ns, quantized to 0.01 ns; barriers take 0. */
    std::vector<double> duration;
    /** ASAP layer per gate (the pair encoding's layer window). */
    std::vector<int> layer;
    /**
     * Precedence arcs (before, after): tau[after] >= tau[before] +
     * duration[before]. Listed per `after` gate in DAG predecessor
     * order, so every arc runs from a lower to a higher gate id.
     */
    std::vector<std::pair<GateId, GateId>> precedence;
    /** Simultaneous-readout groups: every gate starts with the first. */
    std::vector<std::vector<GateId>> readout_groups;
    /** Per qubit that carries a non-barrier gate, in qubit order. */
    std::vector<Lifetime> lifetimes;
    /** Eligible pairs, ordered by (i, j). */
    std::vector<Pair> eligible;
    /** Gates in at least one eligible pair, ascending. */
    std::vector<GateId> eligible_gates;
    /** log E(g) per gate; meaningful for eligible gates only. */
    std::vector<double> log_independent;
    /** Device trait: candidate pairs never partially overlap. */
    bool no_partial_overlap = false;
};

/**
 * Build the problem for @p circuit: quantized durations, the DAG's
 * precedence arcs, readout groups, lifetimes, and the eligible pairs
 * under the paper's high-crosstalk test (HighCrosstalkCriteria{}).
 */
XtalkProblem BuildXtalkProblem(
    const Circuit& circuit, const Device& device,
    const CrosstalkCharacterization& characterization);

/**
 * The componentwise-earliest start times (ns, earliest gate at 0) that
 * minimize the weighted qubit lifetimes with no pair encoded. Every
 * solve is certified: the start times satisfy every precedence and
 * readout constraint, and the primal objective equals the flow's dual
 * objective within 1e-9 relative, or InternalError is thrown.
 * Readout groups the circuit orders one before another make the
 * problem infeasible: that throws Error.
 */
std::vector<double> SolveLifetimeFlow(const XtalkProblem& problem);

/** sum_q (tau_last + d_last - tau_first) / T_q for @p start_ns. */
double LifetimeObjective(const XtalkProblem& problem,
                         const std::vector<double>& start_ns);

/**
 * True when @p start_ns satisfies every precedence and readout
 * constraint of @p problem to within @p tolerance_ns.
 */
bool SatisfiesTimingConstraints(const XtalkProblem& problem,
                                const std::vector<double>& start_ns,
                                double tolerance_ns = 1e-9);

/**
 * One from-scratch Z3 round over @p problem with @p pairs encoded in the
 * powerset encoding, for the ω-weighted objective. Returns the model's
 * start times (ns, as Z3 reports them: no shift to 0). Throws
 * SolverFailure when Z3 produces no model within options.timeout_ms.
 */
std::vector<double> SolveXtalkProblemWithZ3(
    const XtalkProblem& problem,
    const std::vector<std::pair<GateId, GateId>>& pairs, double omega,
    const XtalkSchedulerOptions& options = {});

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_XTALK_PROBLEM_H
