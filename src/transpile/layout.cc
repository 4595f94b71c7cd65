#include "transpile/layout.h"

#include <algorithm>
#include <limits>
#include <map>
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

namespace {

/** Per-coupler placement cost: error plus optional crosstalk penalty. */
std::vector<double>
CouplerCosts(const Device& device,
             const CrosstalkCharacterization* characterization,
             double crosstalk_penalty_weight)
{
    const Topology& topo = device.topology();
    std::vector<double> cost(topo.num_edges());
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        cost[e] = device.CxError(e);
        if (!characterization || crosstalk_penalty_weight <= 0.0) {
            continue;
        }
        for (EdgeId other = 0; other < topo.num_edges(); ++other) {
            if (other != e &&
                characterization->IsHighCrosstalk(e, other)) {
                cost[e] += crosstalk_penalty_weight *
                           (characterization->ConditionalError(e, other) -
                            characterization->IndependentError(e));
            }
        }
    }
    return cost;
}

}  // namespace

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

    // Interaction weights between logical qubit pairs.
    std::map<std::pair<int, int>, int> interactions;
    std::vector<int> degree(n_logical, 0);
    for (const Gate& g : logical.gates()) {
        if (g.IsTwoQubitUnitary()) {
            const auto key = std::minmax(g.qubits[0], g.qubits[1]);
            ++interactions[{key.first, key.second}];
            ++degree[g.qubits[0]];
            ++degree[g.qubits[1]];
        }
    }

    const std::vector<double> edge_cost =
        CouplerCosts(device, characterization, crosstalk_penalty_weight);
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

    std::vector<QubitId> layout(n_logical, -1);
    std::vector<bool> taken(topo.num_qubits(), false);

    auto pair_weight = [&](int a, int b) {
        const auto key = std::minmax(a, b);
        const auto it = interactions.find({key.first, key.second});
        return it == interactions.end() ? 0 : it->second;
    };

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
            // Light tie-break toward central, low-error neighborhoods.
            double neighborhood = 0.0;
            for (QubitId nb : topo.Neighbors(phys)) {
                neighborhood += edge_cost[topo.FindEdge(phys, nb)];
            }
            cost += 1e-3 * neighborhood;
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
