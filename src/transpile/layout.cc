#include "transpile/layout.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace xtalk {

std::vector<QubitId>
TrivialLayout(const Circuit& logical)
{
    std::vector<QubitId> layout(logical.num_qubits());
    std::iota(layout.begin(), layout.end(), 0);
    return layout;
}

void
AddCrosstalkPenalty(const CrosstalkCharacterization& characterization,
                    double weight, std::vector<double>* edge_cost)
{
    const auto num_edges = static_cast<EdgeId>(edge_cost->size());
    for (const auto& [pair, conditional] :
         characterization.conditional_entries()) {
        const auto [victim, aggressor] = pair;
        if (victim == aggressor || victim < 0 || victim >= num_edges ||
            aggressor < 0 || aggressor >= num_edges ||
            !characterization.IsHighCrosstalk(victim, aggressor)) {
            continue;
        }
        (*edge_cost)[victim] +=
            weight *
            (conditional - characterization.IndependentError(victim));
    }
}

std::vector<QubitId>
NoiseAwareLayout(const Device& device, const Circuit& logical,
                 const CrosstalkCharacterization* characterization,
                 double crosstalk_penalty_weight)
{
    const Topology& topo = device.topology();
    const int n_logical = logical.num_qubits();
    XTALK_REQUIRE(n_logical <= topo.num_qubits(),
                  "circuit needs " << n_logical << " qubits, device has "
                                   << topo.num_qubits());

    // Interaction weights between logical qubit pairs, kept in both
    // orders.
    std::vector<int> interactions(static_cast<size_t>(n_logical) * n_logical,
                                  0);
    const auto pair_weight = [&](int a, int b) -> int& {
        return interactions[static_cast<size_t>(a) * n_logical + b];
    };
    std::vector<int> degree(n_logical, 0);
    for (const Gate& g : logical.gates()) {
        if (g.IsTwoQubitUnitary()) {
            ++pair_weight(g.qubits[0], g.qubits[1]);
            ++pair_weight(g.qubits[1], g.qubits[0]);
            ++degree[g.qubits[0]];
            ++degree[g.qubits[1]];
        }
    }

    // Per-coupler placement cost: error plus optional crosstalk penalty.
    std::vector<double> edge_cost(topo.num_edges());
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        edge_cost[e] = device.CxError(e);
    }
    if (characterization != nullptr && crosstalk_penalty_weight > 0.0) {
        AddCrosstalkPenalty(*characterization, crosstalk_penalty_weight,
                            &edge_cost);
    }
    // Cheapest adjacent coupler per qubit, used as the per-hop SWAP scale.
    double typical_cost = 0.0;
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        typical_cost += edge_cost[e];
    }
    typical_cost /= std::max(1, topo.num_edges());

    // Place logical qubits in descending interaction degree.
    std::vector<int> order(n_logical);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return degree[a] > degree[b]; });

    // Light tie-break toward central, low-error neighborhoods.
    std::vector<double> neighborhood(topo.num_qubits(), 0.0);
    for (QubitId phys = 0; phys < topo.num_qubits(); ++phys) {
        for (QubitId nb : topo.Neighbors(phys)) {
            neighborhood[phys] += edge_cost[topo.FindEdge(phys, nb)];
        }
    }

    std::vector<QubitId> layout(n_logical, -1);
    std::vector<bool> taken(topo.num_qubits(), false);

    for (int logical_q : order) {
        double best_cost = std::numeric_limits<double>::infinity();
        QubitId best_phys = -1;
        for (QubitId phys = 0; phys < topo.num_qubits(); ++phys) {
            if (taken[phys]) {
                continue;
            }
            double cost = 0.0;
            bool feasible = true;
            for (int other = 0; other < n_logical; ++other) {
                if (layout[other] < 0) {
                    continue;
                }
                const int weight = pair_weight(logical_q, other);
                if (weight == 0) {
                    continue;
                }
                const QubitId other_phys = layout[other];
                const EdgeId e = topo.FindEdge(phys, other_phys);
                if (e >= 0) {
                    cost += weight * edge_cost[e];
                } else {
                    const int d = topo.Distance(phys, other_phys);
                    if (d < 0) {
                        feasible = false;
                        break;
                    }
                    // Each missing hop costs ~3 CNOTs of typical error.
                    cost += weight * (edge_cost.empty()
                                          ? 0.0
                                          : 3.0 * typical_cost * (d - 1)) +
                            weight * typical_cost;
                }
            }
            cost += 1e-3 * neighborhood[phys];
            if (feasible && cost < best_cost) {
                best_cost = cost;
                best_phys = phys;
            }
        }
        XTALK_REQUIRE(best_phys >= 0, "no feasible placement for logical "
                                          << logical_q);
        layout[logical_q] = best_phys;
        taken[best_phys] = true;
    }
    return layout;
}

}  // namespace xtalk
