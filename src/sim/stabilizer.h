/**
 * @file
 * Stabilizer-state simulator (Aaronson-Gottesman CHP) with measurement.
 *
 * Tracks an n-qubit stabilizer state in O(n^2) bits — the Clifford
 * tableau of clifford/tableau.h, read as the state it prepares from
 * |0...0> — and simulates Clifford gates in O(n) and measurements in
 * O(n^2), exponentially cheaper than the state vector for the
 * Clifford-only circuits of randomized benchmarking. The
 * StabilizerSimulator below mirrors the NoisySimulator's error model on
 * this representation:
 *
 *  - gate errors inject uniform random Paulis (identical to the
 *    trajectory engine — depolarizing noise is a Pauli channel);
 *  - decoherence uses the *Pauli twirl* of amplitude damping
 *    (pX = pY = gamma/4, pZ = (1 - gamma/2 - sqrt(1-gamma))/2) plus the
 *    dephasing Z-flip — an approximation (exact amplitude damping is
 *    not a stabilizer operation), accurate to O(gamma^2) per step;
 *  - readout errors flip classical bits.
 *
 * RB error estimates from this backend match the state-vector backend
 * within statistical tolerance (tested), at a fraction of the cost.
 */
#ifndef XTALK_SIM_STABILIZER_H
#define XTALK_SIM_STABILIZER_H

#include "circuit/schedule.h"
#include "common/rng.h"
#include "device/device.h"
#include "sim/counts.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

/**
 * Clifford-only counterpart of NoisySimulator: executes a scheduled
 * circuit with the (Pauli-twirled) noise model on a stabilizer tableau.
 * It runs from the same per-run setup (BuildRunPlan) but interprets every
 * shot in full, without the state-vector engine's cached no-event path.
 */
class StabilizerSimulator {
  public:
    explicit StabilizerSimulator(const Device& device,
                                 NoisySimOptions options = {});

    /**
     * Run @p spec.shots trajectories. Throws if the schedule contains
     * non-Clifford gates.
     */
    Counts Run(const ScheduledCircuit& schedule, const RunSpec& spec);

  private:
    const Device* device_;
    NoisySimOptions options_;
    Rng rng_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_STABILIZER_H
