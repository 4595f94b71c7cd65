#include "device/topology.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/error.h"

namespace xtalk {

Topology::Topology(int num_qubits,
                   std::vector<std::pair<QubitId, QubitId>> edge_pairs)
    : num_qubits_(num_qubits)
{
    XTALK_REQUIRE(num_qubits > 0, "topology needs at least one qubit");
    // (neighbor, edge) per qubit, sorted by neighbor.
    std::vector<std::vector<std::pair<QubitId, EdgeId>>> links(num_qubits);
    std::set<std::pair<QubitId, QubitId>> seen;
    for (auto [a, b] : edge_pairs) {
        XTALK_REQUIRE(a >= 0 && a < num_qubits && b >= 0 && b < num_qubits,
                      "edge (" << a << ", " << b << ") out of range");
        XTALK_REQUIRE(a != b, "self-loop on qubit " << a);
        if (a > b) {
            std::swap(a, b);
        }
        XTALK_REQUIRE(seen.insert({a, b}).second,
                      "duplicate edge (" << a << ", " << b << ")");
        links[a].push_back({b, num_edges()});
        links[b].push_back({a, num_edges()});
        edges_.push_back({a, b});
    }
    adjacency_.resize(num_qubits);
    incident_.resize(num_qubits);
    for (QubitId q = 0; q < num_qubits; ++q) {
        std::sort(links[q].begin(), links[q].end());
        for (const auto& [neighbor, e] : links[q]) {
            adjacency_[q].push_back(neighbor);
            incident_[q].push_back(e);
        }
    }

    // All-pairs BFS; fine at NISQ scales (tens of qubits).
    distance_.assign(num_qubits, std::vector<int>(num_qubits, -1));
    for (QubitId src = 0; src < num_qubits; ++src) {
        auto& dist = distance_[src];
        dist[src] = 0;
        std::deque<QubitId> frontier{src};
        while (!frontier.empty()) {
            const QubitId u = frontier.front();
            frontier.pop_front();
            for (QubitId v : adjacency_[u]) {
                if (dist[v] < 0) {
                    dist[v] = dist[u] + 1;
                    frontier.push_back(v);
                }
            }
        }
    }
}

const Edge&
Topology::edge(EdgeId e) const
{
    XTALK_REQUIRE(e >= 0 && e < num_edges(), "edge id " << e
                                                        << " out of range");
    return edges_[e];
}

const std::vector<QubitId>&
Topology::Neighbors(QubitId q) const
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit " << q << " out of range");
    return adjacency_[q];
}

bool
Topology::AreConnected(QubitId a, QubitId b) const
{
    return FindEdge(a, b) >= 0;
}

EdgeId
Topology::FindEdge(QubitId a, QubitId b) const
{
    XTALK_REQUIRE(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
                  "qubit pair (" << a << ", " << b << ") out of range");
    const std::vector<QubitId>& neighbors = adjacency_[a];
    const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), b);
    if (it == neighbors.end() || *it != b) {
        return -1;
    }
    return incident_[a][it - neighbors.begin()];
}

int
Topology::Distance(QubitId a, QubitId b) const
{
    XTALK_REQUIRE(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
                  "qubit pair (" << a << ", " << b << ") out of range");
    return distance_[a][b];
}

std::vector<QubitId>
Topology::ShortestPath(QubitId a, QubitId b) const
{
    const int d = Distance(a, b);
    if (d < 0) {
        return {};
    }
    // Walk backwards from b along strictly decreasing distance-to-a.
    // Ties prefer the higher-numbered neighbor, which reproduces the
    // paper's illustrative route 0-5-10-11-12-13 on Poughkeepsie.
    std::vector<QubitId> reversed{b};
    QubitId cur = b;
    while (cur != a) {
        for (auto it = adjacency_[cur].rbegin();
             it != adjacency_[cur].rend(); ++it) {
            if (distance_[a][*it] == distance_[a][cur] - 1) {
                cur = *it;
                reversed.push_back(*it);
                break;
            }
        }
    }
    std::reverse(reversed.begin(), reversed.end());
    return reversed;
}

int
Topology::EdgeDistance(EdgeId e1, EdgeId e2) const
{
    const Edge& x = edge(e1);
    const Edge& y = edge(e2);
    if (x.SharesQubit(y)) {
        return 0;
    }
    int best = -1;
    for (QubitId u : {x.a, x.b}) {
        for (QubitId v : {y.a, y.b}) {
            const int d = distance_[u][v];
            if (d >= 0 && (best < 0 || d < best)) {
                best = d;
            }
        }
    }
    return best;
}

std::vector<std::pair<EdgeId, EdgeId>>
Topology::SimultaneousEdgePairs() const
{
    std::vector<std::pair<EdgeId, EdgeId>> out;
    for (EdgeId i = 0; i < num_edges(); ++i) {
        for (EdgeId j = i + 1; j < num_edges(); ++j) {
            if (!edges_[i].SharesQubit(edges_[j])) {
                out.push_back({i, j});
            }
        }
    }
    return out;
}

std::vector<std::pair<EdgeId, EdgeId>>
Topology::EdgePairsAtDistance(int hops) const
{
    std::vector<std::pair<EdgeId, EdgeId>> out;
    for (const auto& [i, j] : SimultaneousEdgePairs()) {
        if (EdgeDistance(i, j) == hops) {
            out.push_back({i, j});
        }
    }
    return out;
}

}  // namespace xtalk
