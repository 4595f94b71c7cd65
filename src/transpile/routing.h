/**
 * @file
 * Hardware mapping and SWAP-insertion routing (the "existing passes" the
 * paper invokes from Qiskit before scheduling, Section 6).
 *
 * Routing uses meet-in-the-middle SWAP chains along shortest paths: to
 * interact two distant qubits both walk toward the middle of the path,
 * as in the paper's CNOT 0,13 example on Poughkeepsie (SWAP 0,5;
 * SWAP 5,10; SWAP 13,12; SWAP 12,11; CNOT 10,11).
 */
#ifndef XTALK_TRANSPILE_ROUTING_H
#define XTALK_TRANSPILE_ROUTING_H

#include <vector>

#include "characterization/characterizer.h"
#include "circuit/circuit.h"
#include "device/device.h"

namespace xtalk {

/** Replace every logical SWAP with its 3-CNOT decomposition. */
Circuit LowerSwaps(const Circuit& circuit);

/** A planned meet-in-the-middle route between two device qubits. */
struct SwapRoute {
    /** SWAPs moving the left endpoint, in execution order. */
    std::vector<std::pair<QubitId, QubitId>> left_swaps;
    /** SWAPs moving the right endpoint, in execution order. */
    std::vector<std::pair<QubitId, QubitId>> right_swaps;
    /** Where the two logical qubits end up (always coupled). */
    QubitId meet_left = -1;
    QubitId meet_right = -1;
};

/**
 * Plan the SWAP chains that bring @p a and @p b adjacent, both walking
 * toward the middle of a shortest path. Requires a connected pair.
 */
SwapRoute PlanMeetInTheMiddle(const Topology& topology, QubitId a, QubitId b);

/** Result of routing a logical circuit onto hardware. */
struct RoutingResult {
    /** Hardware-compliant circuit (SWAPs lowered to CNOTs). */
    Circuit circuit;
    /** initial_layout[logical] = physical qubit at circuit start. */
    std::vector<QubitId> initial_layout;
    /** final_layout[logical] = physical qubit at circuit end. */
    std::vector<QubitId> final_layout;
};

/**
 * Map a logical circuit onto the device: start from @p initial_layout
 * (logical -> physical; must be injective) and insert meet-in-the-middle
 * SWAP chains before any CNOT whose operands are not adjacent.
 * A terminal measurement (no later non-barrier gate on its qubit) is
 * emitted after the routed body, at its logical qubit's final location;
 * any other measurement reads the qubit's current location.
 */
RoutingResult RouteCircuit(const Device& device, const Circuit& logical,
                           const std::vector<QubitId>& initial_layout);

/**
 * Crosstalk-aware path selection (extension beyond the paper's scheduler:
 * the compiler can also *route around* crosstalk): find the
 * minimum-cost path between two qubits where each coupler costs its
 * independent error plus a penalty for every high-crosstalk partnership
 * it participates in. Compared with the shortest path, this may accept
 * extra hops to avoid couplers that would force serialization later.
 */
std::vector<QubitId> LowestCrosstalkPath(
    const Device& device, const CrosstalkCharacterization& characterization,
    QubitId a, QubitId b, double crosstalk_penalty_weight = 0.5);

/**
 * Greedy noise-aware linear placement: find a connected chain of
 * @p length device qubits minimizing the total CNOT error along the
 * chain (used to pick benchmark regions). Returns device qubits in
 * chain order.
 */
std::vector<QubitId> BestLinearChain(const Device& device, int length);

}  // namespace xtalk

#endif  // XTALK_TRANSPILE_ROUTING_H
