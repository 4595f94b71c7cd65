/**
 * @file
 * Measurement-outcome histograms ("counts" in Qiskit terms) keyed by the
 * classical bitstring packed into a 64-bit integer (clbit 0 = LSB).
 */
#ifndef XTALK_SIM_COUNTS_H
#define XTALK_SIM_COUNTS_H

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace xtalk {

/**
 * Histogram of classical outcomes over repeated shots: one row per
 * outcome seen, in ascending order of its bits, in one flat vector.
 */
class Counts {
  public:
    /** An outcome's bits and its shots. */
    using Row = std::pair<uint64_t, int>;

    Counts() = default;
    explicit Counts(int num_clbits) : num_clbits_(num_clbits) {}

    int num_clbits() const { return num_clbits_; }
    int shots() const { return shots_; }
    /** Rows in ascending order of bits. */
    const std::vector<Row>& histogram() const { return histogram_; }

    /**
     * Record one shot's outcome. Outcomes arriving in ascending order
     * append; any other costs a shift of the later rows, so a loop over
     * many shots of many outcomes records them with RecordShots.
     */
    void Record(uint64_t bits);

    /** Record @p shots shots of one outcome (as Record(bits)). */
    void Record(uint64_t bits, int shots);

    /**
     * Record one shot of each outcome in @p outcomes, which it sorts in
     * place: O(n log n) in the shots, whatever number are distinct.
     */
    void RecordShots(std::span<uint64_t> outcomes);

    /** Room for @p rows distinct outcomes without reallocating. */
    void Reserve(size_t rows) { histogram_.reserve(rows); }

    /**
     * Add another histogram's shots into this one (used to combine the
     * per-chunk results of a parallel run), in one linear merge of the
     * rows. Histogram addition is commutative, so merge order never
     * affects the result.
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
    /** Add @p rows (ascending, distinct bits) into the histogram; the
     *  caller counts their shots. */
    void MergeRows(std::span<const Row> rows);

    int num_clbits_ = 0;
    int shots_ = 0;
    std::vector<Row> histogram_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_COUNTS_H
