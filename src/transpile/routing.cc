#include "transpile/routing.h"

#include <algorithm>
#include <limits>
#include <functional>
#include <set>

#include "common/error.h"
#include "transpile/layout.h"

namespace xtalk {

Circuit
LowerSwaps(const Circuit& circuit)
{
    Circuit out(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
        if (g.kind == GateKind::kSwap) {
            out.CX(g.qubits[0], g.qubits[1]);
            out.CX(g.qubits[1], g.qubits[0]);
            out.CX(g.qubits[0], g.qubits[1]);
        } else {
            out.Add(g);
        }
    }
    return out;
}

SwapRoute
PlanMeetInTheMiddle(const Topology& topology, QubitId a, QubitId b)
{
    XTALK_REQUIRE(a != b, "route endpoints must differ");
    const std::vector<QubitId> path = topology.ShortestPath(a, b);
    XTALK_REQUIRE(!path.empty(),
                  "qubits " << a << " and " << b << " are disconnected");
    SwapRoute route;
    // path = [a, ..., b]; left endpoint walks forward, right walks
    // backward, until they occupy adjacent path nodes. With k = path
    // hops, the left side takes ceil((k-1)/2) swaps, the right side the
    // rest, matching the paper's meet-in-the-middle example.
    int left = 0;
    int right = static_cast<int>(path.size()) - 1;
    bool move_left = true;
    while (right - left > 1) {
        if (move_left) {
            route.left_swaps.push_back({path[left], path[left + 1]});
            ++left;
        } else {
            route.right_swaps.push_back({path[right], path[right - 1]});
            --right;
        }
        move_left = !move_left;
    }
    route.meet_left = path[left];
    route.meet_right = path[right];
    return route;
}

RoutingResult
RouteCircuit(const Device& device, const Circuit& logical,
             const std::vector<QubitId>& initial_layout)
{
    const Topology& topo = device.topology();
    XTALK_REQUIRE(static_cast<int>(initial_layout.size()) ==
                      logical.num_qubits(),
                  "layout size " << initial_layout.size()
                                 << " != " << logical.num_qubits()
                                 << " logical qubits");
    std::set<QubitId> used;
    for (QubitId p : initial_layout) {
        XTALK_REQUIRE(p >= 0 && p < topo.num_qubits(),
                      "physical qubit " << p << " out of range");
        XTALK_REQUIRE(used.insert(p).second,
                      "layout maps two logical qubits to physical " << p);
    }

    RoutingResult result{Circuit(topo.num_qubits()), initial_layout,
                         initial_layout};
    std::vector<QubitId>& layout = result.final_layout;
    // phys_to_logical[-1] marks unoccupied physical qubits.
    std::vector<int> logical_at(topo.num_qubits(), -1);
    for (int l = 0; l < logical.num_qubits(); ++l) {
        logical_at[layout[l]] = l;
    }

    auto apply_swap = [&](QubitId pa, QubitId pb) {
        result.circuit.CX(pa, pb);
        result.circuit.CX(pb, pa);
        result.circuit.CX(pa, pb);
        const int la = logical_at[pa];
        const int lb = logical_at[pb];
        logical_at[pa] = lb;
        logical_at[pb] = la;
        if (la >= 0) {
            layout[la] = pb;
        }
        if (lb >= 0) {
            layout[lb] = pa;
        }
    };

    // A terminal measurement (no later non-barrier gate on its qubit)
    // commutes with every later gate, so it waits for the routed body and
    // reads its qubit's final location: emitted in place, a later SWAP
    // through its physical qubit would carry other data there before a
    // scheduler moves the measurement past the SWAP. The body ends at the
    // last gate that is neither a measurement nor a barrier.
    const int n = logical.size();
    std::vector<char> terminal(n, 0);
    std::vector<char> used_later(logical.num_qubits(), 0);
    int body_end = 0;
    for (GateId g = n - 1; g >= 0; --g) {
        const Gate& gate = logical.gate(g);
        if (gate.IsBarrier()) {
            continue;
        }
        if (!gate.IsMeasure() && body_end == 0) {
            body_end = g + 1;
        }
        if (gate.IsMeasure() && !used_later[gate.qubits[0]]) {
            terminal[g] = 1;
        }
        for (QubitId q : gate.qubits) {
            used_later[q] = 1;
        }
    }
    std::vector<GateId> deferred;
    const auto emit_deferred = [&] {
        for (GateId m : deferred) {
            Gate mapped = logical.gate(m);
            mapped.qubits[0] = layout[mapped.qubits[0]];
            result.circuit.Add(std::move(mapped));
        }
        deferred.clear();
    };

    for (GateId index = 0; index < n; ++index) {
        const Gate& g = logical.gate(index);
        if (index == body_end) {
            emit_deferred();
        }
        if (terminal[index] && index < body_end) {
            deferred.push_back(index);
            continue;
        }
        if (g.IsBarrier()) {
            Gate barrier = g;
            for (QubitId& q : barrier.qubits) {
                q = layout[q];
            }
            result.circuit.Add(std::move(barrier));
            continue;
        }
        if (g.qubits.size() == 1) {
            Gate mapped = g;
            mapped.qubits[0] = layout[g.qubits[0]];
            result.circuit.Add(std::move(mapped));
            continue;
        }
        // Two-qubit gate: ensure adjacency with meet-in-the-middle SWAPs.
        QubitId pa = layout[g.qubits[0]];
        QubitId pb = layout[g.qubits[1]];
        if (!topo.AreConnected(pa, pb)) {
            const SwapRoute route = PlanMeetInTheMiddle(topo, pa, pb);
            for (const auto& [x, y] : route.left_swaps) {
                apply_swap(x, y);
            }
            for (const auto& [x, y] : route.right_swaps) {
                apply_swap(x, y);
            }
            pa = layout[g.qubits[0]];
            pb = layout[g.qubits[1]];
            XTALK_ASSERT(topo.AreConnected(pa, pb),
                         "routing failed to make qubits adjacent");
        }
        Gate mapped = g;
        mapped.qubits = {pa, pb};
        if (mapped.kind == GateKind::kSwap) {
            apply_swap(pa, pb);
        } else {
            result.circuit.Add(std::move(mapped));
        }
    }
    emit_deferred();
    return result;
}

std::vector<QubitId>
LowestCrosstalkPath(const Device& device,
                    const CrosstalkCharacterization& characterization,
                    QubitId a, QubitId b, double crosstalk_penalty_weight)
{
    const Topology& topo = device.topology();
    XTALK_REQUIRE(a != b, "endpoints must differ");
    XTALK_REQUIRE(a >= 0 && a < topo.num_qubits() && b >= 0 &&
                      b < topo.num_qubits(),
                  "endpoints out of range");

    // Per-coupler cost: independent error (characterized when available)
    // plus the weighted crosstalk penalty.
    std::vector<double> edge_cost(topo.num_edges());
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        edge_cost[e] = characterization.IndependentOrCalibratedError(e, device);
    }
    AddCrosstalkPenalty(characterization, crosstalk_penalty_weight,
                        &edge_cost);

    // Dijkstra over qubits.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(topo.num_qubits(), kInf);
    std::vector<QubitId> prev(topo.num_qubits(), -1);
    std::vector<bool> done(topo.num_qubits(), false);
    dist[a] = 0.0;
    for (int iter = 0; iter < topo.num_qubits(); ++iter) {
        QubitId u = -1;
        double best = kInf;
        for (QubitId q = 0; q < topo.num_qubits(); ++q) {
            if (!done[q] && dist[q] < best) {
                best = dist[q];
                u = q;
            }
        }
        if (u < 0) {
            break;
        }
        done[u] = true;
        for (QubitId v : topo.Neighbors(u)) {
            const EdgeId e = topo.FindEdge(u, v);
            if (dist[u] + edge_cost[e] < dist[v]) {
                dist[v] = dist[u] + edge_cost[e];
                prev[v] = u;
            }
        }
    }
    XTALK_REQUIRE(dist[b] < kInf,
                  "qubits " << a << " and " << b << " are disconnected");
    std::vector<QubitId> path;
    for (QubitId cur = b; cur >= 0; cur = prev[cur]) {
        path.push_back(cur);
        if (cur == a) {
            break;
        }
    }
    std::reverse(path.begin(), path.end());
    return path;
}

std::vector<QubitId>
BestLinearChain(const Device& device, int length)
{
    const Topology& topo = device.topology();
    XTALK_REQUIRE(length >= 2 && length <= topo.num_qubits(),
                  "chain length " << length << " out of range");
    // Depth-first enumeration of simple paths with the cheapest total CX
    // error; NISQ devices are small enough for exhaustive search with
    // pruning.
    std::vector<QubitId> best;
    double best_cost = std::numeric_limits<double>::infinity();
    std::vector<QubitId> current;
    std::vector<bool> visited(topo.num_qubits(), false);

    std::function<void(QubitId, double)> extend = [&](QubitId q, double cost) {
        if (cost >= best_cost) {
            return;
        }
        current.push_back(q);
        visited[q] = true;
        if (static_cast<int>(current.size()) == length) {
            best = current;
            best_cost = cost;
        } else {
            for (QubitId next : topo.Neighbors(q)) {
                if (!visited[next]) {
                    const EdgeId e = topo.FindEdge(q, next);
                    extend(next, cost + device.CxError(e));
                }
            }
        }
        visited[q] = false;
        current.pop_back();
    };
    for (QubitId q = 0; q < topo.num_qubits(); ++q) {
        extend(q, 0.0);
    }
    XTALK_REQUIRE(!best.empty(),
                  "no connected chain of length " << length << " exists");
    return best;
}

}  // namespace xtalk
