#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace xtalk {

namespace {

/** splitmix64 step, used for seeding the xoshiro state. */
uint64_t
SplitMix64(uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

uint64_t
DeriveSeed(uint64_t base, uint64_t index)
{
    // Offset by (index + 1) golden-ratio increments, then apply the
    // splitmix64 finalizer so DeriveSeed(base, 0) != base.
    uint64_t x = base + (index + 1) * 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto& word : state_) {
        word = SplitMix64(s);
    }
}

double
Rng::Uniform(double lo, double hi)
{
    XTALK_REQUIRE(lo <= hi, "invalid uniform range [" << lo << ", " << hi
                                                      << ")");
    return lo + (hi - lo) * Uniform();
}

uint64_t
Rng::UniformInt(uint64_t n)
{
    XTALK_REQUIRE(n > 0, "UniformInt requires n > 0");
    // Rejection sampling to remove modulo bias.
    const uint64_t limit = ~0ull - (~0ull % n);
    uint64_t x;
    do {
        x = Next();
    } while (x >= limit);
    return x % n;
}

double
Rng::Normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1;
    do {
        u1 = Uniform();
    } while (u1 <= 0.0);
    const double u2 = Uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::Normal(double mean, double stddev)
{
    return mean + stddev * Normal();
}

size_t
Rng::Discrete(const std::vector<double>& weights)
{
    double total = 0.0;
    for (double w : weights) {
        XTALK_REQUIRE(w >= 0.0, "negative weight " << w);
        total += w;
    }
    XTALK_REQUIRE(total > 0.0, "Discrete requires a positive total weight");
    double target = Uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0) {
            return i;
        }
    }
    return weights.size() - 1;  // Floating-point edge: last positive bucket.
}

}  // namespace xtalk
