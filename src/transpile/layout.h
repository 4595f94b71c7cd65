/**
 * @file
 * Initial qubit placement. The paper invokes "existing passes for
 * mapping" before scheduling; these are those passes:
 *
 *  - TrivialLayout: logical i -> physical i;
 *  - NoiseAwareLayout: a greedy variability-aware placement in the
 *    spirit of Murali et al. (ASPLOS 2019, the paper's reference [43]):
 *    logical qubits are placed in order of their interaction weight onto
 *    physical qubits that keep interacting pairs adjacent on low-error
 *    couplers, and optionally away from high-crosstalk couplers.
 */
#ifndef XTALK_TRANSPILE_LAYOUT_H
#define XTALK_TRANSPILE_LAYOUT_H

#include <vector>

#include "characterization/characterizer.h"
#include "circuit/circuit.h"
#include "device/device.h"

namespace xtalk {

/**
 * Add each coupler's crosstalk penalty to @p edge_cost, which holds one
 * cost per coupler of the device: @p weight times the conditional-
 * minus-independent excess of every high-crosstalk partnership
 * (HighCrosstalkCriteria{}) in which the coupler is the victim. One walk
 * over the snapshot's conditional entries; their (victim, aggressor)
 * order adds each coupler's excesses in ascending aggressor order.
 * Entries naming a coupler the device does not have are skipped.
 */
void AddCrosstalkPenalty(const CrosstalkCharacterization& characterization,
                         double weight, std::vector<double>* edge_cost);

/** logical i -> physical i. */
std::vector<QubitId> TrivialLayout(const Circuit& logical);

/**
 * Greedy noise-aware placement: logical qubits are placed in descending
 * order of two-qubit interaction count; each goes to the free physical
 * qubit minimizing the summed expected cost to its already-placed
 * partners (coupler error for adjacent placements, distance-scaled SWAP
 * cost otherwise, plus the crosstalk penalty when characterization data
 * is supplied). Returns initial_layout[logical] = physical.
 *
 * @p characterization may be null (pure gate-error placement).
 * @p crosstalk_penalty_weight scales the extra per-coupler cost for
 * each high-crosstalk partnership the coupler participates in (0
 * disables it; the compiler passes
 * CompilerOptions::layout_crosstalk_penalty).
 */
std::vector<QubitId> NoiseAwareLayout(
    const Device& device, const Circuit& logical,
    const CrosstalkCharacterization* characterization = nullptr,
    double crosstalk_penalty_weight = 0.0);

}  // namespace xtalk

#endif  // XTALK_TRANSPILE_LAYOUT_H
