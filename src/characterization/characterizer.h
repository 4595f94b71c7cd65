/**
 * @file
 * Full-device crosstalk characterization (paper Section 5).
 *
 * A CharacterizationPlan decides *which* SRB experiments to run and how
 * they batch; the four policies correspond to the paper's baseline and
 * its three optimizations:
 *
 *  - kAllPairs:       every simultaneously drivable CNOT pair, serially;
 *  - kOneHop:         only pairs separated by exactly 1 hop (Opt 1);
 *  - kOneHopBinPacked: 1-hop pairs, parallelized with randomized
 *                      first-fit bin packing (Opt 2);
 *  - kHighOnly:       only previously known high-crosstalk pairs,
 *                      bin packed (Opt 3, the daily fast path).
 *
 * CrosstalkCharacterizer executes a plan against the noisy simulator and
 * produces a CrosstalkCharacterization: the measured independent and
 * conditional error rates the scheduler consumes. The characterizer
 * never copies the device's hidden ground truth — every number comes
 * from RB decays; GroundTruthCharacterization copies it for oracles.
 */
#ifndef XTALK_CHARACTERIZATION_CHARACTERIZER_H
#define XTALK_CHARACTERIZATION_CHARACTERIZER_H

#include <map>
#include <set>
#include <vector>

#include "characterization/binpack.h"
#include "characterization/rb.h"

namespace xtalk {

/** Which experiments to run (paper baseline + Opts 1-3). */
enum class CharacterizationPolicy {
    kAllPairs,
    kOneHop,
    kOneHopBinPacked,
    kHighOnly,
};

/** Human-readable policy name for reports. */
std::string PolicyName(CharacterizationPolicy policy);

/** A batched experiment plan. */
struct CharacterizationPlan {
    CharacterizationPolicy policy = CharacterizationPolicy::kOneHopBinPacked;
    std::vector<ExperimentBin> batches;

    int NumExperiments() const;
    int NumBatches() const { return static_cast<int>(batches.size()); }
};

/**
 * Build a plan for the given policy. kHighOnly requires
 * @p known_high_pairs, the stable high-crosstalk set discovered by an
 * earlier full pass; the other policies ignore it. The bin-packed
 * policies place pairs at least two hops apart and keep the best of 20
 * randomized first-fit packings (paper Section 5, Opt 2).
 */
CharacterizationPlan BuildCharacterizationPlan(
    const Topology& topology, CharacterizationPolicy policy, Rng& rng,
    const std::vector<GatePair>& known_high_pairs = {});

/**
 * When is a conditional error "high crosstalk"? The conditional rate
 * must exceed `threshold` times the independent rate AND exceed it by
 * at least `margin` in absolute terms. The margin suppresses false
 * positives on low-error couplers, where RB shot noise alone can
 * double a tiny estimate; without it the scheduler would
 * over-serialize (see DESIGN.md). Passed as one struct so every layer
 * that re-applies the paper's test (layout, routing, both schedulers,
 * the workload generators) names the knobs instead of threading two
 * positional doubles.
 */
struct HighCrosstalkCriteria {
    double threshold = 2.5;
    double margin = 0.015;
};

/** Measured error rates: the compiler-facing characterization output. */
class CrosstalkCharacterization {
  public:
    /** Record an independent error estimate for a coupler. */
    void SetIndependentError(EdgeId edge, double error);

    /** Record a conditional estimate E(victim | aggressor). */
    void SetConditionalError(EdgeId victim, EdgeId aggressor, double error);

    /** True if an independent estimate exists. */
    bool HasIndependentError(EdgeId edge) const;

    /** Independent estimate; throws if absent. */
    double IndependentError(EdgeId edge) const;

    /** Independent estimate, or @p device's calibrated CX error when the
     *  coupler was not measured. */
    double IndependentOrCalibratedError(EdgeId edge,
                                        const Device& device) const;

    /** True if a conditional estimate exists for the ordered pair. */
    bool HasConditionalError(EdgeId victim, EdgeId aggressor) const;

    /**
     * Conditional estimate; falls back to the independent estimate when
     * the ordered pair was not measured.
     */
    double ConditionalError(EdgeId victim, EdgeId aggressor) const;

    /**
     * Unordered pairs whose measured conditional rate exceeds
     * @p threshold times the independent rate in either direction (the
     * paper's "high crosstalk" test, threshold 3).
     */
    std::vector<GatePair> HighCrosstalkPairs(double threshold = 3.0) const;

    /** Robust high-crosstalk test for one direction (see
     *  HighCrosstalkCriteria for the threshold/margin semantics). */
    bool IsHighCrosstalk(EdgeId victim, EdgeId aggressor,
                         const HighCrosstalkCriteria& criteria = {}) const;

    /** All measured ordered conditional entries. */
    const std::map<GatePair, double>& conditional_entries() const
    {
        return conditional_;
    }

    /** All measured independent entries. */
    const std::map<EdgeId, double>& independent_entries() const
    {
        return independent_;
    }

    /** Merge (overwrite) entries from another characterization. */
    void Merge(const CrosstalkCharacterization& other);

    /**
     * Stable content hash of every entry (hex). Two characterizations
     * with identical measurements share an id, so the run ledger can
     * tell "the snapshot changed" from "the code changed" across the
     * daily re-characterization workflow.
     */
    std::string SnapshotId() const;

  private:
    std::map<EdgeId, double> independent_;
    std::map<GatePair, double> conditional_;
};

/**
 * What a perfect characterization would measure: every coupler's
 * calibrated CX error and the conditional rate of every ordered pair in
 * the device's hidden ground truth, both on the device's current day.
 * An oracle for tests, benches and the differential oracle, never for
 * the compiler: scoring a schedule against it applies the rates the
 * simulators run.
 */
CrosstalkCharacterization GroundTruthCharacterization(const Device& device);

/**
 * Everything that shapes one characterizer: the RB budget and the
 * runtime sizing. Experiments always run with every noise source on.
 * A failed experiment is resubmitted with *identical* jobs (same
 * seeds), up to kMaxAttempts tries in all (common/retry.h), so a retry
 * that succeeds is bit-identical to a run that never failed.
 */
struct CharacterizerConfig {
    /** (S)RB budget: sequence lengths, shots, backend, seed. */
    RbConfig rb = {};
    /** Parallel-runtime sizing (default: the shared process pool).
     *  Results are bit-identical for any thread count. */
    runtime::ExecutorOptions exec = {};
};

/**
 * What a characterization run survived: experiments that needed
 * retries and the pairs/couplers dropped after the retry budget was
 * exhausted (the sweep continues without them instead of aborting —
 * the scheduler simply sees no measurement for a quarantined pair).
 */
struct CharacterizationRunReport {
    /** Couplers whose independent RB never succeeded. */
    std::vector<EdgeId> quarantined_edges;
    /** SRB gate pairs dropped after exhausting retries. */
    std::vector<GatePair> quarantined_pairs;
    /** Experiments that failed at least once but eventually succeeded. */
    int retried_experiments = 0;
    /** Extra batch rounds run beyond the first. */
    int retry_rounds = 0;
    /** Individual job failures observed across all attempts. */
    int failed_jobs = 0;

    bool clean() const
    {
        return quarantined_edges.empty() && quarantined_pairs.empty() &&
               retried_experiments == 0;
    }
};

/** Executes characterization plans on the simulated device. */
class CrosstalkCharacterizer {
  public:
    /**
     * Bind to @p device with everything else in one config (see
     * CharacterizerConfig). Results are bit-identical for any thread
     * count — every (S)RB circuit job carries its own deterministic
     * seed.
     */
    CrosstalkCharacterizer(const Device& device, CharacterizerConfig config);

    /**
     * Run the plan: first independent RB on every coupler appearing in
     * it, then one SRB per gate pair (batches run "in parallel" — i.e.
     * the pairs of a batch are characterized within the same schedule).
     * The calling thread draws every SRB sequence of the plan round;
     * the pool builds their circuit jobs and then runs them as one
     * Executor batch, so wall time scales down with the worker count.
     *
     * Failure semantics: a failed experiment (e.g. an injected
     * `srb.run` fault) is retried up to kMaxAttempts tries and
     * quarantined — dropped from the result, recorded in @p report —
     * when the budget runs out. The sweep itself always completes.
     */
    CrosstalkCharacterization Run(const CharacterizationPlan& plan,
                                  CharacterizationRunReport* report =
                                      nullptr);

    /** Independent RB on an explicit set of couplers (one batch). */
    CrosstalkCharacterization MeasureIndependent(
        const std::vector<EdgeId>& edges,
        CharacterizationRunReport* report = nullptr);

  private:
    const Device* device_;
    CharacterizerConfig config_;
};

}  // namespace xtalk

#endif  // XTALK_CHARACTERIZATION_CHARACTERIZER_H
