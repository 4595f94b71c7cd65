#include "clifford/group.h"

#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/error.h"

namespace xtalk {

struct CliffordGroup::Lookup {
    std::unordered_map<std::string, size_t> index_by_key;
};

CliffordGroup::CliffordGroup(int num_qubits) : num_qubits_(num_qubits)
{
    XTALK_REQUIRE(num_qubits == 1 || num_qubits == 2,
                  "CliffordGroup supports 1 or 2 qubits, got " << num_qubits);

    // Generator set: H and S on each qubit, CX in both directions.
    std::vector<Gate> generators;
    for (int q = 0; q < num_qubits; ++q) {
        generators.push_back({GateKind::kH, {q}, {}, -1});
        generators.push_back({GateKind::kS, {q}, {}, -1});
    }
    if (num_qubits == 2) {
        generators.push_back({GateKind::kCX, {0, 1}, {}, -1});
        generators.push_back({GateKind::kCX, {1, 0}, {}, -1});
    }

    auto lookup = std::make_shared<Lookup>();
    std::deque<size_t> frontier;

    const Tableau identity(num_qubits);
    circuits_.emplace_back(num_qubits);  // Empty circuit = identity element.
    lookup->index_by_key[identity.Key()] = 0;
    frontier.push_back(0);

    // BFS: expand each element by every generator; tableaux are rebuilt
    // from the stored circuits, which stay shortest-word by construction.
    while (!frontier.empty()) {
        const size_t cur = frontier.front();
        frontier.pop_front();
        const Circuit base = circuits_[cur];
        for (const Gate& gen : generators) {
            Tableau t = Tableau::FromCircuit(base);
            t.ApplyGate(gen);
            const std::string key = t.Key();
            if (lookup->index_by_key.count(key)) {
                continue;
            }
            Circuit extended = base;
            extended.Add(gen);
            lookup->index_by_key[key] = circuits_.size();
            circuits_.push_back(std::move(extended));
            frontier.push_back(circuits_.size() - 1);
        }
    }
    lookup_ = std::move(lookup);

    const size_t expected = num_qubits == 1 ? 24 : 11520;
    XTALK_ASSERT(circuits_.size() == expected,
                 "enumerated " << circuits_.size() << " elements, expected "
                               << expected);
}

const Circuit&
CliffordGroup::circuit(size_t index) const
{
    XTALK_REQUIRE(index < circuits_.size(), "element index out of range");
    return circuits_[index];
}

size_t
CliffordGroup::Sample(Rng& rng) const
{
    return rng.UniformInt(circuits_.size());
}

size_t
CliffordGroup::Find(const Tableau& tableau) const
{
    XTALK_REQUIRE(tableau.num_qubits() == num_qubits_,
                  "tableau width mismatch");
    const auto it = lookup_->index_by_key.find(tableau.Key());
    XTALK_REQUIRE(it != lookup_->index_by_key.end(),
                  "tableau is not a member of the enumerated group");
    return it->second;
}

const CliffordGroup&
CliffordGroup::Shared(int num_qubits)
{
    // Leaked on purpose: pool workers build SRB sequences from these
    // groups, and the shared pool drains its queue during static
    // destruction.
    static std::once_flag flags[2];
    static const CliffordGroup* groups[2];
    XTALK_REQUIRE(num_qubits == 1 || num_qubits == 2,
                  "CliffordGroup supports 1 or 2 qubits");
    const int slot = num_qubits - 1;
    std::call_once(flags[slot], [&] {
        groups[slot] = new CliffordGroup(num_qubits);
    });
    return *groups[slot];
}

}  // namespace xtalk
