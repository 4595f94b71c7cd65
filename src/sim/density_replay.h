/**
 * @file
 * Exact density-matrix replay of a scheduled circuit.
 *
 * Walks the same time-ordered gate plan as the trajectory engine
 * (`NoisySimulator::Run`) but applies each sampled noise mechanism as
 * its exact Kraus channel on a `DensityMatrix`:
 *
 *  - gate errors become depolarizing channels at the crosstalk-aware
 *    effective rate (`OverlapGateErrors` at the device's calibrated and
 *    ground-truth rates, i.e. the max conditional CX error over
 *    overlapping aggressors);
 *  - decoherence over every busy/idle interval becomes amplitude-damping
 *    and dephasing channels with the same gamma / p_z the trajectory
 *    engine draws Bernoulli jumps from;
 *  - readout assignment error becomes a classical X-flip channel on the
 *    measured qubit.
 *
 * Measurements are not collapsed: the replay requires every measure to
 * be *terminal* for its qubit (no later gate touches it), in which case
 * the deferred-measurement principle makes the uncollapsed diagonal
 * exactly the trajectory engine's expected outcome distribution. This is
 * the reference arm of the differential oracle (src/difftest): the
 * Monte-Carlo histogram must converge to `ReplayScheduleDensity` as
 * shots grow.
 */
#ifndef XTALK_SIM_DENSITY_REPLAY_H
#define XTALK_SIM_DENSITY_REPLAY_H

#include <vector>

#include "circuit/schedule.h"
#include "device/device.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

/** Diagnostics from an exact replay. */
struct DensityReplayResult {
    /** Outcome distribution over 2^num_clbits classical bit patterns. */
    std::vector<double> probabilities;
    /** Tr(rho) after the replay; should stay ~1 (channels trace-preserve). */
    double trace = 0.0;
    /** Number of compacted qubits actually simulated. */
    int width = 0;
};

/**
 * Exact outcome distribution of @p schedule on @p device under the same
 * noise model the trajectory engine samples. Requires the schedule to
 * touch at most 10 qubits (density-matrix limit) and every measure to be
 * terminal for its qubit. `options.seed` is ignored (nothing is random);
 * the noise toggles behave exactly as in `NoisySimulator`.
 */
DensityReplayResult ReplayScheduleDensity(const Device& device,
                                          const ScheduledCircuit& schedule,
                                          const NoisySimOptions& options = {});

}  // namespace xtalk

#endif  // XTALK_SIM_DENSITY_REPLAY_H
