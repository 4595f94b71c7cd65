/**
 * @file
 * The nine circuit shapes of the service benchmark's compile_warm
 * workload, seeded, for tests that pin what the compiler does with
 * them. Header-only; each test binary that includes it gets its own
 * copy.
 */
#ifndef XTALK_TESTS_COMPILE_WARM_SHAPES_H
#define XTALK_TESTS_COMPILE_WARM_SHAPES_H

#include <algorithm>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "device/device.h"
#include "workloads/adversarial.h"
#include "workloads/hidden_shift.h"
#include "workloads/qaoa.h"

namespace xtalk::test_shapes {

/** A seeded random simple path of @p length coupled qubits. */
inline std::vector<QubitId>
RandomChain(const Device& device, int length, Rng& rng)
{
    const Topology& topo = device.topology();
    for (;;) {
        std::vector<QubitId> chain{static_cast<QubitId>(
            rng.UniformInt(static_cast<uint64_t>(topo.num_qubits())))};
        while (static_cast<int>(chain.size()) < length) {
            std::vector<QubitId> next;
            for (QubitId q : topo.Neighbors(chain.back())) {
                if (std::find(chain.begin(), chain.end(), q) == chain.end()) {
                    next.push_back(q);
                }
            }
            if (next.empty()) {
                break;
            }
            chain.push_back(next[rng.UniformInt(next.size())]);
        }
        if (static_cast<int>(chain.size()) == length) {
            return chain;
        }
    }
}

/** @p wide on a register of exactly its active qubits, in first-use
 *  order (how the service benchmark submits its circuits). */
inline Circuit
Compact(const Circuit& wide)
{
    std::vector<QubitId> order;
    for (const Gate& gate : wide.gates()) {
        for (QubitId q : gate.qubits) {
            if (std::find(order.begin(), order.end(), q) == order.end()) {
                order.push_back(q);
            }
        }
    }
    std::vector<QubitId> map(static_cast<size_t>(wide.num_qubits()), 0);
    for (size_t i = 0; i < order.size(); ++i) {
        map[static_cast<size_t>(order[i])] = static_cast<QubitId>(i);
    }
    Circuit compact(static_cast<int>(order.size()));
    compact.AppendMapped(wide, map);
    return compact;
}

/** One seeded circuit of each of the nine compile_warm shapes of the
 *  service benchmark: QAOA 4x3, 5x2, 6x2; hidden shift plain and with
 *  redundant CNOTs; the four adversarial families. */
inline std::vector<Circuit>
CompileWarmShapes(const Device& device, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Circuit> circuits;
    for (const auto& [qubits, layers] :
         std::vector<std::pair<int, int>>{{4, 3}, {5, 2}, {6, 2}}) {
        QaoaOptions options;
        options.layers = layers;
        options.param_seed = rng.Next();
        circuits.push_back(Compact(BuildQaoaCircuit(
            device, RandomChain(device, qubits, rng), options)));
    }
    for (bool redundant : {false, true}) {
        const auto& edges = device.topology().edges();
        const Edge* a = nullptr;
        const Edge* b = nullptr;
        while (a == nullptr || a->SharesQubit(*b)) {
            a = &edges[rng.UniformInt(edges.size())];
            b = &edges[rng.UniformInt(edges.size())];
        }
        HiddenShiftOptions options;
        options.shift = 1 + static_cast<unsigned>(rng.UniformInt(15));
        options.redundant_cnots = redundant;
        circuits.push_back(Compact(BuildHiddenShiftCircuit(
            device, {a->a, a->b, b->a, b->b}, options)));
    }
    for (const auto& [family, qubits] :
         std::vector<std::pair<AdversarialFamily, int>>{
             {AdversarialFamily::kParallelCxMesh, 6},
             {AdversarialFamily::kDepthChain, 5},
             {AdversarialFamily::kReadoutHeavy, 6},
             {AdversarialFamily::kCliffordOnly, 4}}) {
        AdversarialOptions options;
        options.family = family;
        options.max_qubits = qubits;
        options.intensity = 2;
        options.seed = rng.Next();
        circuits.push_back(
            Compact(BuildAdversarialCircuit(device, options)));
    }
    return circuits;
}

}  // namespace xtalk::test_shapes

#endif  // XTALK_TESTS_COMPILE_WARM_SHAPES_H
