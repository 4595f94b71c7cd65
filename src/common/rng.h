/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the library (noise sampling, RB sequence
 * generation, randomized bin packing, synthetic calibrations) draws from an
 * explicitly seeded Rng so that experiments are reproducible shot-for-shot.
 * The engine is xoshiro256** seeded through splitmix64, which is fast and
 * has no observable correlations at the scales used here.
 */
#ifndef XTALK_COMMON_RNG_H
#define XTALK_COMMON_RNG_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xtalk {

/**
 * Counter-based child-seed derivation (splitmix64 finalizer over
 * base + index). Equal (base, index) pairs always give the same seed,
 * distinct indices give statistically independent streams; this is the
 * scheme the parallel Executor uses to give every shot chunk its own
 * generator (see docs/PARALLELISM.md).
 */
uint64_t DeriveSeed(uint64_t base, uint64_t index);

/** Seeded pseudo-random generator used throughout the library. */
class Rng {
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. Inline, as are Uniform() and Bernoulli():
     *  the samplers draw a few per shot. */
    uint64_t
    Next()
    {
        const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1): the 53 high bits of Next(). */
    double
    Uniform()
    {
        return static_cast<double>(Next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double Uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t UniformInt(uint64_t n);

    /** Standard normal deviate (Box-Muller with caching). */
    double Normal();

    /** Normal deviate with the given mean and standard deviation. */
    double Normal(double mean, double stddev);

    /** Bernoulli trial: true with probability p. */
    bool Bernoulli(double p) { return Uniform() < p; }

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * Requires at least one strictly positive weight.
     */
    size_t Discrete(const std::vector<double>& weights);

    /** Fisher-Yates shuffle of a vector in place. */
    template <typename T>
    void
    Shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = UniformInt(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    // UniformRandomBitGenerator interface for <algorithm> compatibility.
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~0ull; }
    uint64_t operator()() { return Next(); }

  private:
    std::array<uint64_t, 4> state_;
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

}  // namespace xtalk

#endif  // XTALK_COMMON_RNG_H
