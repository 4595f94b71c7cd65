/**
 * @file
 * Data-dependency DAG over a circuit.
 *
 * Two gates are dependent when they share a qubit (program order decides
 * the direction) or when a barrier orders them. The scheduler uses the
 * transitive closure to compute CanOlp(g): the gates that are neither
 * ancestors nor descendants of g and may therefore execute concurrently
 * (paper Section 7.2).
 */
#ifndef XTALK_CIRCUIT_DAG_H
#define XTALK_CIRCUIT_DAG_H

#include <vector>

#include "circuit/circuit.h"

namespace xtalk {

/** Immutable dependency DAG built from a circuit. */
class DependencyDag {
  public:
    /** Build the DAG for @p circuit (kept by reference; must outlive us). */
    explicit DependencyDag(const Circuit& circuit);

    const Circuit& circuit() const { return *circuit_; }
    int size() const { return static_cast<int>(direct_preds_.size()); }

    /** Direct predecessors (immediately preceding gate on some qubit). */
    const std::vector<GateId>& Predecessors(GateId g) const;

    /** Direct successors. */
    const std::vector<GateId>& Successors(GateId g) const;

    /** True if @p ancestor precedes @p g transitively. */
    bool IsAncestor(GateId ancestor, GateId g) const;

    /** True if neither gate transitively depends on the other. */
    bool CanOverlap(GateId a, GateId b) const;

    /**
     * As-soon-as-possible layer index per gate; barriers occupy a layer
     * boundary but add no depth.
     */
    std::vector<int> AsapLayers() const;

  private:
    const Circuit* circuit_;
    std::vector<std::vector<GateId>> direct_preds_;
    std::vector<std::vector<GateId>> direct_succs_;
    // Transitive-closure bitsets: reachable_[g] has bit a set iff a is an
    // ancestor of g. Packed 64-bit words.
    std::vector<std::vector<uint64_t>> ancestors_;

    bool TestBit(GateId g, GateId bit) const;
};

}  // namespace xtalk

#endif  // XTALK_CIRCUIT_DAG_H
