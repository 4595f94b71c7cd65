/**
 * @file
 * Measurement-outcome histograms ("counts" in Qiskit terms) keyed by the
 * classical bitstring packed into a 64-bit integer (clbit 0 = LSB).
 */
#ifndef XTALK_SIM_COUNTS_H
#define XTALK_SIM_COUNTS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xtalk {

/** Histogram of classical outcomes over repeated shots. */
class Counts {
  public:
    Counts() = default;
    explicit Counts(int num_clbits) : num_clbits_(num_clbits) {}

    int num_clbits() const { return num_clbits_; }
    int shots() const { return shots_; }
    const std::map<uint64_t, int>& histogram() const { return histogram_; }

    /** Record one shot's outcome. */
    void Record(uint64_t bits);

    /** Record @p shots shots of one outcome. */
    void Record(uint64_t bits, int shots);

    /**
     * Add another histogram's shots into this one (used to combine the
     * per-chunk results of a parallel run). Histogram addition is
     * commutative, so merge order never affects the result.
     */
    void Merge(const Counts& other);

    /** Count for a specific outcome (0 if unseen). */
    int CountOf(uint64_t bits) const;

    /** Empirical probability of an outcome. */
    double Probability(uint64_t bits) const;

    /** Empirical distribution over all 2^num_clbits outcomes. */
    std::vector<double> ToProbabilities() const;

    /** Render an outcome as a bitstring, clbit (num-1) first. */
    static std::string BitsToString(uint64_t bits, int num_clbits);

    /** Multi-line "bitstring: count" table, descending by count. */
    std::string ToString() const;

  private:
    int num_clbits_ = 0;
    int shots_ = 0;
    std::map<uint64_t, int> histogram_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_COUNTS_H
