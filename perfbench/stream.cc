#include "stream.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "circuit/circuit.h"
#include "circuit/qasm.h"
#include "common/rng.h"
#include "device/ibmq_devices.h"
#include "sim/counts.h"
#include "workloads/adversarial.h"
#include "workloads/hidden_shift.h"
#include "workloads/qaoa.h"

namespace perfbench {

namespace {

using xtalk::AdversarialFamily;
using xtalk::Circuit;
using xtalk::Device;
using xtalk::QubitId;
using xtalk::Rng;

enum class Family { kQaoa, kHiddenShift, kAdversarial };

struct Shape {
    Family family;
    /** Active qubits (QAOA chain length, adversarial window cap). */
    int qubits = 4;
    /** QAOA layers or adversarial intensity. */
    int depth = 1;
    bool redundant = false;
    AdversarialFamily adversarial = AdversarialFamily::kParallelCxMesh;
};

std::vector<Shape>
ShapesFor(PoolKind kind)
{
    if (kind == PoolKind::kSmall) {
        return {
            {Family::kQaoa, 4, 1},
            {Family::kHiddenShift, 4, 1},
            {Family::kAdversarial, 4, 1, false,
             AdversarialFamily::kCliffordOnly},
        };
    }
    // Seven-qubit circuits are left out on purpose: their SMT solves are
    // bimodal (seconds against milliseconds for everything else) and
    // would make a compile workload unsteady.
    return {
        {Family::kQaoa, 4, 3},
        {Family::kQaoa, 5, 2},
        {Family::kQaoa, 6, 2},
        {Family::kHiddenShift, 4, 1, false},
        {Family::kHiddenShift, 4, 1, true},
        {Family::kAdversarial, 6, 2, false,
         AdversarialFamily::kParallelCxMesh},
        {Family::kAdversarial, 5, 2, false, AdversarialFamily::kDepthChain},
        {Family::kAdversarial, 6, 2, false, AdversarialFamily::kReadoutHeavy},
        {Family::kAdversarial, 4, 2, false, AdversarialFamily::kCliffordOnly},
    };
}

/** A random simple path of @p length coupled qubits. */
std::vector<QubitId>
RandomChain(const Device& device, int length, Rng& rng)
{
    const auto& topo = device.topology();
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

/** Two random couplers that share no qubit, each in random orientation. */
std::array<QubitId, 4>
RandomCouplerPair(const Device& device, Rng& rng)
{
    const auto& edges = device.topology().edges();
    for (;;) {
        const auto& e1 = edges[rng.UniformInt(edges.size())];
        const auto& e2 = edges[rng.UniformInt(edges.size())];
        if (e1.SharesQubit(e2)) {
            continue;
        }
        std::array<QubitId, 4> q{e1.a, e1.b, e2.a, e2.b};
        if (rng.Bernoulli(0.5)) {
            std::swap(q[0], q[1]);
        }
        if (rng.Bernoulli(0.5)) {
            std::swap(q[2], q[3]);
        }
        return q;
    }
}

/** Move the active qubits of @p wide onto a register of exactly that
 *  many qubits, labelled in order of first use or, with @p shuffle, in a
 *  seeded order. Classical bits are kept. */
Circuit
Compact(const Circuit& wide, bool shuffle, Rng& rng)
{
    std::vector<QubitId> active;
    for (const xtalk::Gate& gate : wide.gates()) {
        for (QubitId q : gate.qubits) {
            if (std::find(active.begin(), active.end(), q) == active.end()) {
                active.push_back(q);
            }
        }
    }
    std::vector<QubitId> labels(active.size());
    std::iota(labels.begin(), labels.end(), 0);
    for (size_t i = labels.size(); shuffle && i > 1; --i) {
        std::swap(labels[i - 1], labels[rng.UniformInt(i)]);
    }
    std::vector<QubitId> map(static_cast<size_t>(wide.num_qubits()), 0);
    for (size_t i = 0; i < active.size(); ++i) {
        map[static_cast<size_t>(active[i])] = labels[i];
    }
    Circuit compact(static_cast<int>(active.size()));
    compact.AppendMapped(wide, map);
    return compact;
}

StreamCircuit
Draw(const Device& device, const Shape& shape, bool shuffle, Rng& rng)
{
    StreamCircuit out;
    Circuit wide(device.num_qubits());
    switch (shape.family) {
      case Family::kQaoa: {
        xtalk::QaoaOptions options;
        options.layers = shape.depth;
        options.param_seed = rng.Next();
        wide = xtalk::BuildQaoaCircuit(
            device, RandomChain(device, shape.qubits, rng), options);
        break;
      }
      case Family::kHiddenShift: {
        xtalk::HiddenShiftOptions options;
        options.shift = 1 + static_cast<unsigned>(rng.UniformInt(15));
        options.redundant_cnots = shape.redundant;
        wide = xtalk::BuildHiddenShiftCircuit(
            device, RandomCouplerPair(device, rng), options);
        out.expected_bits = xtalk::Counts::BitsToString(
            xtalk::HiddenShiftExpectedOutcome(options), wide.num_clbits());
        break;
      }
      case Family::kAdversarial: {
        xtalk::AdversarialOptions options;
        options.family = shape.adversarial;
        options.max_qubits = shape.qubits;
        options.intensity = shape.depth;
        options.seed = rng.Next();
        wide = xtalk::BuildAdversarialCircuit(device, options);
        break;
      }
    }
    out.qasm = xtalk::ToQasm(Compact(wide, shuffle, rng));
    return out;
}

}  // namespace

std::vector<StreamCircuit>
GenerateStream(PoolKind kind, int copies, bool shuffle_labels,
               uint64_t seed)
{
    const Device device = xtalk::MakePoughkeepsie();
    const std::vector<Shape> shapes = ShapesFor(kind);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
    // Copy-major order: any prefix of the pool covers the shapes evenly.
    std::vector<StreamCircuit> pool;
    for (int c = 0; c < copies; ++c) {
        for (const Shape& shape : shapes) {
            pool.push_back(Draw(device, shape, shuffle_labels, rng));
        }
    }
    return pool;
}

}  // namespace perfbench
