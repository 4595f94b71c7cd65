/**
 * @file
 * Hardware qubit-connectivity graphs.
 *
 * Nodes are physical qubits; undirected edges are couplers on which a CNOT
 * can be driven (paper Figure 3). The characterizer and scheduler reason
 * about distances between *gates* (edges): two CNOTs "separated by 1 hop"
 * have closest endpoints at qubit distance 1.
 */
#ifndef XTALK_DEVICE_TOPOLOGY_H
#define XTALK_DEVICE_TOPOLOGY_H

#include <string>
#include <utility>
#include <vector>

#include "circuit/gate.h"

namespace xtalk {

/** Index of a coupler (undirected edge) in a topology. */
using EdgeId = int;

/** An undirected coupling between two physical qubits. */
struct Edge {
    QubitId a = -1;
    QubitId b = -1;

    bool
    Contains(QubitId q) const
    {
        return q == a || q == b;
    }

    bool
    SharesQubit(const Edge& other) const
    {
        return Contains(other.a) || Contains(other.b);
    }

    bool operator==(const Edge& rhs) const = default;
};

/** Immutable qubit-connectivity graph with distance queries. */
class Topology {
  public:
    /**
     * Build from an edge list; endpoints are normalized so a < b and
     * duplicate edges are rejected.
     */
    Topology(int num_qubits, std::vector<std::pair<QubitId, QubitId>> edges);

    int num_qubits() const { return num_qubits_; }
    int num_edges() const { return static_cast<int>(edges_.size()); }
    const std::vector<Edge>& edges() const { return edges_; }
    const Edge& edge(EdgeId e) const;

    /** Neighbors of a qubit, ascending. */
    const std::vector<QubitId>& Neighbors(QubitId q) const;

    /** True if a CNOT can be driven between the two qubits. */
    bool AreConnected(QubitId a, QubitId b) const;

    /** Edge id for a coupled qubit pair; -1 if not coupled. O(degree). */
    EdgeId FindEdge(QubitId a, QubitId b) const;

    /**
     * Shortest-path hop count between qubits; -1 if disconnected.
     */
    int Distance(QubitId a, QubitId b) const;

    /** A shortest path from @p a to @p b inclusive; empty if disconnected. */
    std::vector<QubitId> ShortestPath(QubitId a, QubitId b) const;

    /**
     * Separation between two couplers: 0 if they share a qubit, else the
     * minimum qubit distance between their endpoints (1 = "1 hop", the
     * range at which the paper observes crosstalk).
     */
    int EdgeDistance(EdgeId e1, EdgeId e2) const;

    /**
     * All unordered pairs of edges that do not share a qubit, i.e. CNOT
     * pairs that can be driven simultaneously (SRB candidates).
     */
    std::vector<std::pair<EdgeId, EdgeId>> SimultaneousEdgePairs() const;

    /**
     * The subset of SimultaneousEdgePairs separated by exactly
     * @p hops.
     */
    std::vector<std::pair<EdgeId, EdgeId>>
    EdgePairsAtDistance(int hops) const;

  private:
    int num_qubits_;
    std::vector<Edge> edges_;
    std::vector<std::vector<QubitId>> adjacency_;
    /** incident_[q][i]: the edge between q and adjacency_[q][i]. */
    std::vector<std::vector<EdgeId>> incident_;
    std::vector<std::vector<int>> distance_;  // All-pairs BFS hop counts.
};

}  // namespace xtalk

#endif  // XTALK_DEVICE_TOPOLOGY_H
