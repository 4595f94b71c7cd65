#include "circuit/dag.h"

#include <algorithm>

#include "common/error.h"

namespace xtalk {

DependencyDag::DependencyDag(const Circuit& circuit) : circuit_(&circuit)
{
    const int n = circuit.size();
    direct_preds_.resize(n);
    direct_succs_.resize(n);

    // last_on_qubit[q] = most recent gate that touched qubit q.
    std::vector<GateId> last_on_qubit(circuit.num_qubits(), -1);
    for (GateId g = 0; g < n; ++g) {
        for (QubitId q : circuit.gate(g).qubits) {
            const GateId prev = last_on_qubit[q];
            if (prev >= 0) {
                // Avoid duplicate edges when two gates share both qubits.
                auto& preds = direct_preds_[g];
                if (std::find(preds.begin(), preds.end(), prev) ==
                    preds.end()) {
                    preds.push_back(prev);
                    direct_succs_[prev].push_back(g);
                }
            }
            last_on_qubit[q] = g;
        }
    }

    // Transitive closure via bitset union in program (= topological) order.
    const size_t words = (static_cast<size_t>(n) + 63) / 64;
    ancestors_.assign(n, std::vector<uint64_t>(words, 0));
    for (GateId g = 0; g < n; ++g) {
        for (GateId p : direct_preds_[g]) {
            auto& mine = ancestors_[g];
            const auto& theirs = ancestors_[p];
            for (size_t w = 0; w < words; ++w) {
                mine[w] |= theirs[w];
            }
            mine[static_cast<size_t>(p) / 64] |= 1ull << (p % 64);
        }
    }
}

const std::vector<GateId>&
DependencyDag::Predecessors(GateId g) const
{
    XTALK_REQUIRE(g >= 0 && g < size(), "gate id out of range");
    return direct_preds_[g];
}

const std::vector<GateId>&
DependencyDag::Successors(GateId g) const
{
    XTALK_REQUIRE(g >= 0 && g < size(), "gate id out of range");
    return direct_succs_[g];
}

bool
DependencyDag::TestBit(GateId g, GateId bit) const
{
    return (ancestors_[g][static_cast<size_t>(bit) / 64] >> (bit % 64)) & 1;
}

bool
DependencyDag::IsAncestor(GateId ancestor, GateId g) const
{
    XTALK_REQUIRE(ancestor >= 0 && ancestor < size(), "gate id out of range");
    XTALK_REQUIRE(g >= 0 && g < size(), "gate id out of range");
    return TestBit(g, ancestor);
}

bool
DependencyDag::CanOverlap(GateId a, GateId b) const
{
    if (a == b) {
        return false;
    }
    return !IsAncestor(a, b) && !IsAncestor(b, a);
}

std::vector<int>
DependencyDag::AsapLayers() const
{
    std::vector<int> layer(size(), 0);
    for (GateId g = 0; g < size(); ++g) {
        int lvl = 0;
        for (GateId p : direct_preds_[g]) {
            const int weight = circuit_->gate(p).IsBarrier() ? 0 : 1;
            lvl = std::max(lvl, layer[p] + weight);
        }
        layer[g] = lvl;
    }
    return layer;
}

}  // namespace xtalk
