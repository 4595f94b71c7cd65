/**
 * @file
 * Ground-truth crosstalk model and temporal drift.
 *
 * This is the *hidden* physical reality of a simulated device: which CNOT
 * pairs interfere, and by how much the victim's error rate is multiplied
 * when the aggressor is driven simultaneously. The compiler never reads
 * this directly — the characterization module estimates it through SRB,
 * reproducing the paper's measurement-driven flow. Figure 4's observation
 * (conditional rates drift 2-3x day to day, but the *set* of
 * high-crosstalk pairs is stable) is modeled by a smooth deterministic
 * per-pair drift.
 */
#ifndef XTALK_DEVICE_CROSSTALK_MODEL_H
#define XTALK_DEVICE_CROSSTALK_MODEL_H

#include <map>
#include <utility>
#include <vector>

#include "device/topology.h"

namespace xtalk {

/** Directional conditional-error factors: E(victim|aggressor) multiplier. */
class CrosstalkGroundTruth {
  public:
    /**
     * Record that driving @p aggressor concurrently multiplies the
     * independent error of @p victim by @p factor (>= 1).
     */
    void SetFactor(EdgeId victim, EdgeId aggressor, double factor);

    /** Factor for a directed pair; 1.0 when no entry exists. */
    double Factor(EdgeId victim, EdgeId aggressor) const;

    /** True if a directed entry exists. */
    bool HasEntry(EdgeId victim, EdgeId aggressor) const;

    /**
     * Unordered pairs where either direction's factor exceeds
     * @p threshold (the paper flags pairs with conditional > 3x
     * independent as high crosstalk).
     */
    std::vector<std::pair<EdgeId, EdgeId>>
    HighCrosstalkPairs(double threshold = 3.0) const;

    /** All directed entries (victim, aggressor) -> factor. */
    const std::map<std::pair<EdgeId, EdgeId>, double>&
    entries() const
    {
        return factors_;
    }

  private:
    std::map<std::pair<EdgeId, EdgeId>, double> factors_;
};

/**
 * Deterministic day-to-day drift of error rates.
 *
 * Produces smooth multiplicative factors keyed on (entity id, day):
 * independent errors wobble mildly (~±15%) while conditional crosstalk
 * factors swing up to the paper's observed 2-3x. Deterministic in the
 * seed so experiments are reproducible.
 */
class DriftModel {
  public:
    explicit DriftModel(uint64_t seed, double independent_amplitude = 0.15,
                        double conditional_amplitude = 0.45);

    /** Multiplier applied to an independent error rate on @p day. */
    double IndependentFactor(int entity, int day) const;

    /** Multiplier applied to a conditional crosstalk factor on @p day. */
    double ConditionalFactor(int victim, int aggressor, int day) const;

    uint64_t seed() const { return seed_; }

  private:
    double Wobble(uint64_t key, int day, double amplitude) const;

    uint64_t seed_;
    double independent_amplitude_;
    double conditional_amplitude_;
};

}  // namespace xtalk

#endif  // XTALK_DEVICE_CROSSTALK_MODEL_H
