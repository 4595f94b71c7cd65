/**
 * @file
 * Exact outcome distribution of a run whose measures are all terminal.
 *
 * When no operation follows a measure on its qubit, a run's histogram
 * is a sample of one fixed distribution, and that distribution can be
 * computed once instead of replaying every shot. ExactDistribution
 * evolves the density matrix of each register of the plan
 * (PlanRegisters: the trajectory engine's independent qubit groups; a
 * register without a measured qubit is never evolved) and applies the
 * trajectory engine's channels in its order, each in closed form:
 *
 *  - idle decay of the operands, then the unitary, then the gate error
 *    as a depolarizing channel (the trajectory's uniform non-identity
 *    Pauli, averaged), then the decay over the operation itself;
 *  - decay is amplitude damping followed by dephasing, with the plan's
 *    gamma and flip probability;
 *  - a measure applies the decay over its readout window; its
 *    assignment error flips the outcome, which is read off the final
 *    diagonal by the deferred-measurement principle.
 *
 * The state is kept in the Pauli basis, 4^k real coefficients for a
 * k-qubit register. A one-qubit channel is a real 4x4 transfer matrix;
 * consecutive ones on a qubit are composed and act in one pass when a
 * two-qubit gate next needs the qubit. Every two-qubit kind (CX, CZ,
 * SWAP) is a Clifford, so it only moves and signs coefficients, and its
 * depolarizing error scales them in the same pass. The cost is a few
 * passes over 4^k numbers per two-qubit gate, independent of the shots.
 *
 * The registers stay independent, so their joint outcome distribution
 * is the product of theirs; a shot's classical bits are the OR of the
 * registers' (as in the trajectory engine, two measures into one bit
 * OR). Registers merge, in order, into sampling groups of at most 4,096
 * joint outcomes, and a shot draws one uniform per group, in group
 * order, and maps it through the group's cumulative distribution (a
 * CdfBins table). Every request circuit is one group, so it draws once
 * per shot.
 *
 * `ReplayScheduleDensity` (sim/density_replay.h) computes the same
 * distribution on one dense register with Kraus-branch copies; it
 * stays the independent reference the tests and the differential
 * oracle hold this engine to.
 */
#ifndef XTALK_SIM_EXACT_DISTRIBUTION_H
#define XTALK_SIM_EXACT_DISTRIBUTION_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/counts.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

/** Widest register the exact engine evolves: 4^10 Pauli coefficients,
 *  8 MiB. */
inline constexpr int kMaxExactRegisterQubits = 10;

/**
 * Qubit count of the widest register an exact evolution of @p plan
 * needs (0 when nothing is measured), or nullopt when a measure is
 * mid-circuit: a later operation touches its qubit, so the outcome
 * depends on the collapse and only trajectories model it.
 */
std::optional<int> ExactRegisterWidth(const RunPlan& plan);

/**
 * Inverse-CDF sampling through a table of equal bins over [0, 1): a
 * power of two of them, at least four per outcome. Bin j holds the
 * first outcome whose CDF exceeds j / bins. A bin is pure when every u
 * in it maps to that one outcome, which is then the answer; from any
 * other bin the lookup walks the CDF forward. Either way it returns
 * the outcome std::upper_bound finds.
 */
class CdfBins {
  public:
    /** @p cdf: the nondecreasing running sums of the outcomes'
     *  probabilities; at least one. */
    explicit CdfBins(std::vector<double> cdf);

    /**
     * For @p u in [0, 1): the first outcome whose CDF exceeds u, as
     * std::upper_bound finds it, or the last outcome when none does
     * (rounding can leave the total just below 1).
     */
    size_t
    Pick(double u) const
    {
        const uint32_t entry = bins_[static_cast<size_t>(u * scale_)];
        size_t i = entry & kOutcome;
        if (entry & kPure) {
            return i;
        }
        while (i < last_ && cdf_[i] <= u) {
            ++i;
        }
        return i;
    }

    const std::vector<double>& cdf() const { return cdf_; }
    size_t bins() const { return bins_.size(); }

  private:
    static constexpr uint32_t kPure = uint32_t{1} << 31;
    static constexpr uint32_t kOutcome = kPure - 1;

    std::vector<double> cdf_;
    size_t last_;
    /** Per bin: its first outcome, with kPure set when it is the only
     *  one. */
    std::vector<uint32_t> bins_;
    double scale_;
};

/** The outcome distribution of one plan, and a sampler over it. */
class ExactDistribution {
  public:
    /**
     * Evolve @p plan. Requires terminal measures and registers of at
     * most kMaxExactRegisterQubits qubits (see ExactRegisterWidth).
     */
    explicit ExactDistribution(const RunPlan& plan);

    int num_clbits() const { return num_clbits_; }
    /** Registers evolved: those that hold a measured qubit. */
    int registers() const { return registers_; }
    /** Qubits of the widest register evolved. */
    int width() const { return width_; }
    /** Outcomes a shot can draw: the product over registers of their
     *  outcomes with nonzero probability. */
    double support() const { return support_; }

    /** Histogram of @p shots shots drawn from @p rng: one uniform per
     *  sampling group and shot, in group order, by inverse CDF. */
    Counts Sample(int shots, Rng& rng) const;

    /** Sampling groups, and the inverse-CDF table of each. */
    size_t groups() const { return groups_.size(); }
    const CdfBins& sampler(size_t group) const { return groups_[group].bins; }

    /** Probability of each of the 2^num_clbits bit patterns, laid out
     *  as Counts::ToProbabilities (num_clbits <= 24). */
    std::vector<double> Probabilities() const;

  private:
    /** One sampling group's joint outcomes: the product of its
     *  registers' outcomes with nonzero probability, the earlier register
     *  varying slowest, each register's in ascending order of its
     *  measured qubits' bits. */
    struct Outcomes {
        std::vector<double> probability;
        std::vector<uint64_t> bits;
        /** Outcome indices in ascending order of their bits. */
        std::vector<uint32_t> by_bits;
        CdfBins bins;
    };

    int num_clbits_ = 1;
    int registers_ = 0;
    int width_ = 0;
    double support_ = 1.0;
    std::vector<Outcomes> groups_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_EXACT_DISTRIBUTION_H
