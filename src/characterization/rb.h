/**
 * @file
 * Randomized benchmarking (RB) and simultaneous randomized benchmarking
 * (SRB) of two-qubit gates, following the paper's Section 4.2 / 8.1 and
 * the Qiskit Ignis protocol:
 *
 *  - a sequence of m uniformly random two-qubit Cliffords is applied to a
 *    coupler, followed by the Clifford that inverts the whole sequence;
 *  - the survival probability of |00> is measured over many shots and
 *    random sequences, for several values of m;
 *  - fitting A p^m + B yields the error per Clifford, and the CNOT error
 *    is EPC / 1.5 (the average CNOT count of a uniform 2q Clifford).
 *
 * SRB runs independent sequences on several disjoint couplers in the
 * same schedule, so that crosstalk between them shows up as an increased
 * conditional error rate E(gi | gj).
 */
#ifndef XTALK_CHARACTERIZATION_RB_H
#define XTALK_CHARACTERIZATION_RB_H

#include <span>
#include <vector>

#include "circuit/schedule.h"
#include "common/fit.h"
#include "common/rng.h"
#include "device/device.h"
#include "runtime/executor.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

/** Experiment budget for one RB/SRB measurement. */
struct RbConfig {
    /** Clifford sequence lengths (the paper uses up to 40). */
    std::vector<int> lengths = {1, 4, 8, 14, 22, 32};
    /** Random sequences per length (paper: enough for 100 total). */
    int sequences_per_length = 6;
    /** Shots per sequence (paper: 1024). */
    int shots = 160;
    /**
     * Execute RB circuits on the stabilizer (CHP) backend instead of the
     * state vector: exact for the Clifford gates and Pauli gate noise,
     * Pauli-twirled for decoherence, and much faster — enables
     * paper-scale budgets (see sim/stabilizer.h).
     */
    bool use_stabilizer_backend = false;
    uint64_t seed = 2020;

    /** Total circuit executions this budget implies per SRB experiment. */
    long long TotalExecutions() const;
};

/** Outcome of benchmarking one coupler. */
struct RbResult {
    EdgeId edge = -1;
    DecayFit fit;
    double error_per_clifford = 0.0;
    double cnot_error = 0.0;
    std::vector<double> lengths;   ///< Averaged data: sequence lengths.
    std::vector<double> survival;  ///< Averaged data: survival probability.
    bool ok = false;
};

/**
 * Result of interleaved RB: the standard decay, the decay with the
 * target CNOT interleaved after every random Clifford, and the per-gate
 * error extracted from the ratio of the two decay parameters
 * (Magesan et al.): r = (d-1)/d * (1 - p_int / p_std).
 */
struct InterleavedRbResult {
    RbResult standard;
    RbResult interleaved;
    double gate_error = 0.0;
    bool ok = false;
};

/**
 * The random draws of one SRB experiment, made but not yet built: per
 * sequence (lengths-major, sequences-minor, the execution order) the
 * Clifford indices of every coupler, pair-major, and the job seed.
 * Drawing is serial, since it is the only use of the runner's
 * generator. Building the circuit jobs from the draws
 * (RbRunner::BuildJobs) is a pure function of them, so experiments can
 * be built in parallel and the jobs are the same at any thread count.
 */
struct SrbExperiment {
    /** One sequence: edges.size() x its length Clifford indices. */
    struct Sequence {
        std::vector<size_t> cliffords;
        uint64_t seed = 0;
    };
    std::vector<EdgeId> edges;
    bool interleave = false;
    std::vector<Sequence> sequences;
};

/** Drives RB/SRB experiments against the noisy simulator. */
class RbRunner {
  public:
    /**
     * @p exec_options controls the parallel runtime used to execute
     * the (S)RB circuit jobs; the default shares the process pool.
     */
    RbRunner(const Device& device, RbConfig config,
             runtime::ExecutorOptions exec_options = {});

    /** Independent two-qubit RB on one coupler: estimates E(g). */
    RbResult MeasureIndependent(EdgeId edge);

    /**
     * Interleaved RB on one coupler: isolates the CNOT's own error from
     * the Clifford-average estimate (an Ignis-standard refinement the
     * paper's upper-bound approach does not need, provided here as an
     * extension).
     */
    InterleavedRbResult MeasureInterleaved(EdgeId edge);

    /**
     * Simultaneous RB on several pairwise-disjoint couplers. Result i is
     * the conditional estimate E(edges[i] | all others). With a single
     * coupler this degenerates to independent RB.
     */
    std::vector<RbResult> MeasureSimultaneous(
        const std::vector<EdgeId>& edges, bool interleave = false);

    /**
     * Draw one SRB experiment from this runner's generator, in the
     * order the serial measurement always used: per length, per
     * sequence, the Clifford indices pair-major, then the job seed.
     * Callers that batch several experiments (the characterizer running
     * a whole plan round) draw them all, build their jobs in parallel,
     * submit the combined jobs as one Executor batch, and reduce each
     * experiment's slice.
     */
    SrbExperiment DrawSimultaneous(const std::vector<EdgeId>& edges,
                                   bool interleave = false);

    /**
     * The circuit jobs of @p experiment, one per sequence, in order.
     * Const and safe to call from several threads at once.
     */
    std::vector<runtime::ExecutionJob> BuildJobs(
        const SrbExperiment& experiment) const;

    /**
     * Fit per-coupler decays from the executed jobs of @p experiment.
     * @p results must be the ExecutionResults of its jobs, in order.
     */
    std::vector<RbResult> ReduceSimultaneous(
        const SrbExperiment& experiment,
        std::span<const runtime::ExecutionResult> results) const;

    /** The parallel runtime this runner executes jobs on. */
    runtime::Executor& executor() { return executor_; }

    /**
     * Build one (S)RB schedule: for each coupler an independent random
     * m-Clifford sequence plus its inverse, ASAP-scheduled with gates on
     * different couplers free to overlap. When @p interleave is true the
     * coupler's CNOT is inserted after every random Clifford. Draws the
     * indices from @p rng, then builds. Exposed for tests.
     */
    ScheduledCircuit BuildSrbSchedule(const std::vector<EdgeId>& edges,
                                      int num_cliffords, Rng& rng,
                                      bool interleave = false) const;

  private:
    /** Check @p edges and @p num_cliffords, then draw the sequence's
     *  Clifford indices, pair-major. */
    std::vector<size_t> DrawCliffords(const std::vector<EdgeId>& edges,
                                      int num_cliffords, Rng& rng) const;

    /** The schedule of one sequence from its drawn indices. */
    ScheduledCircuit BuildSchedule(const std::vector<EdgeId>& edges,
                                   const std::vector<size_t>& cliffords,
                                   bool interleave) const;

    const Device* device_;
    RbConfig config_;
    runtime::Executor executor_;
    Rng rng_;
};

}  // namespace xtalk

#endif  // XTALK_CHARACTERIZATION_RB_H
