/**
 * @file
 * Seeded request streams for the service benchmark.
 *
 * Every stream is a pool of distinct circuits drawn from a fixed list of
 * shapes (family, active-qubit count, depth knob). The seed picks only
 * the details inside each shape: where the circuit sits on the device,
 * how its qubits are labelled, rotation angles, hidden shifts and
 * adversarial gate choices. Keeping the shape mix fixed keeps the
 * aggregate cost of a pool steady from seed to seed, while the details
 * still differ. Circuits are compacted onto a register of exactly their
 * active qubits, labelled in order of first use (as a person writes a
 * circuit) or, for a workload that should stress routing, in a seeded
 * order that a trivial layout has to repair with SWAPs.
 *
 * Shuffled labels are kept away from the noise-aware layout: on some
 * labellings it misplaces a 6-qubit QAOA chain, which then needs SWAPs
 * and runs 4x longer, and that bimodal cost makes the draw dominate the
 * latency tail.
 */
#ifndef PERFBENCH_STREAM_H
#define PERFBENCH_STREAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One distinct circuit of a stream, already serialized to QASM. */
struct StreamCircuit {
    std::string qasm;
    /** Hidden-shift instances: the outcome a noiseless run always gives,
     *  as a classical-register bitstring; empty for other families. */
    std::string expected_bits;
};

/** Which shape list a workload draws from. */
enum class PoolKind {
    /** A few small circuits: each request is dominated by
     *  characterization, so the pool only needs to vary a little. */
    kSmall,
    /** Paper-sized circuits of 4-6 active qubits: QAOA, hidden shift
     *  (plain and redundant-CNOT) and the four adversarial families. */
    kPaper,
};

/**
 * Draw @p copies instances of every shape of @p kind from @p seed, on
 * the Poughkeepsie device the service uses by default; @p shuffle_labels
 * picks seeded qubit labels over first-use order. The same arguments
 * always give the same circuits in the same order.
 */
std::vector<StreamCircuit> GenerateStream(PoolKind kind, int copies,
                                          bool shuffle_labels, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H
