/**
 * @file
 * Stabilizer-state simulator (Aaronson-Gottesman CHP) with measurement.
 *
 * Tracks an n-qubit stabilizer state in O(n^2) bits and simulates
 * Clifford gates in O(n) and measurements in O(n^2) — exponentially
 * cheaper than the state vector for the Clifford-only circuits of
 * randomized benchmarking. The StabilizerSimulator below mirrors the
 * NoisySimulator's error model on this representation:
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

#include <cstdint>
#include <vector>

#include "circuit/schedule.h"
#include "common/rng.h"
#include "device/device.h"
#include "sim/counts.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

/** n-qubit stabilizer state with CHP measurement. */
class StabilizerState {
  public:
    /** Initialize |0...0>. */
    explicit StabilizerState(int num_qubits);

    int num_qubits() const { return num_qubits_; }

    /** Reset to |0...0>. */
    void Reset();

    // Clifford gates (same update rules as the unitary tableau).
    void ApplyH(int q);
    void ApplyS(int q);
    void ApplySdg(int q);
    void ApplyX(int q);
    void ApplyY(int q);
    void ApplyZ(int q);
    void ApplySX(int q);
    void ApplyCX(int control, int target);
    void ApplyCZ(int a, int b);
    void ApplySwap(int a, int b);

    /** Apply a Clifford circuit gate; throws on non-Clifford kinds. */
    void ApplyGate(const Gate& gate);

    /**
     * Z-basis measurement of qubit @p q with collapse; random outcomes
     * drawn from @p rng.
     */
    bool MeasureQubit(int q, Rng& rng);

    /**
     * Probability that measuring @p q yields 1: exactly 0, 0.5, or 1
     * for stabilizer states.
     */
    double ProbabilityOne(int q) const;

  private:
    struct Row {
        std::vector<uint64_t> x;
        std::vector<uint64_t> z;
        bool r = false;

        bool GetX(int q) const { return (x[q / 64] >> (q % 64)) & 1; }
        bool GetZ(int q) const { return (z[q / 64] >> (q % 64)) & 1; }
        void SetX(int q, bool v);
        void SetZ(int q, bool v);
        void Clear();
    };

    /**
     * CHP rowsum: row h *= row i (Pauli product with phase tracking).
     * @p track_phase=false skips the i-power bookkeeping and leaves
     * h.r untouched — required when h is a *destabilizer* row, which
     * may anticommute with i (odd i-power) and whose phase bit the
     * algorithm never reads.
     */
    void RowSum(Row& h, const Row& i, bool track_phase = true) const;

    int num_qubits_;
    size_t words_;
    // rows_[0..n-1] destabilizers, rows_[n..2n-1] stabilizers.
    std::vector<Row> rows_;
};

/**
 * Clifford-only counterpart of NoisySimulator: executes a scheduled
 * circuit with the (Pauli-twirled) noise model on stabilizer states. It
 * runs from the same per-run setup (BuildRunPlan) but interprets every
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
