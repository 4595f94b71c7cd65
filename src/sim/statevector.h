/**
 * @file
 * Dense state-vector simulator core with the noise-channel primitives the
 * trajectory simulator needs (the amplitude-damping jump and no-jump
 * operators and measurement collapse; a dephasing flip is a Z gate).
 * Little-endian: qubit 0 is the least significant bit of the basis
 * index.
 *
 * Every kernel visits amplitudes in a fixed order and sums norms in
 * ascending basis-index order, so a kernel's result depends only on its
 * inputs: the trajectory simulator relies on this to replay cached states
 * bit for bit (see sim/noisy_simulator.h).
 */
#ifndef XTALK_SIM_STATEVECTOR_H
#define XTALK_SIM_STATEVECTOR_H

#include <array>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "common/matrix.h"

namespace xtalk {

/** Row-major coefficients of a one-qubit (2x2) unitary. */
using Unitary1Q = std::array<Complex, 4>;
/** Row-major coefficients of a two-qubit (4x4) unitary. */
using Unitary2Q = std::array<Complex, 16>;

/** Fixed-size coefficients of a 2x2 matrix. */
Unitary1Q ToUnitary1Q(const Matrix& u);
/** Fixed-size coefficients of a 4x4 matrix. */
Unitary2Q ToUnitary2Q(const Matrix& u);

/** Pure n-qubit quantum state. */
class StateVector {
  public:
    /** Initialize |0...0> on @p num_qubits qubits. */
    explicit StateVector(int num_qubits);

    int num_qubits() const { return num_qubits_; }
    size_t dimension() const { return amps_.size(); }
    const std::vector<Complex>& amplitudes() const { return amps_; }
    Complex amplitude(size_t basis) const { return amps_[basis]; }

    /** Reset to |0...0>. */
    void Reset();

    /** Overwrite the state with @p amps (dimension() amplitudes). */
    void Load(std::span<const Complex> amps);

    /** Apply a 2x2 unitary to qubit @p q. */
    void Apply1Q(int q, const Unitary1Q& u);
    void Apply1Q(int q, const Matrix& u);

    /**
     * Apply a 4x4 unitary with @p q_low as the low tensor bit and
     * @p q_high as the high bit.
     */
    void Apply2Q(int q_low, int q_high, const Unitary2Q& u);
    void Apply2Q(int q_low, int q_high, const Matrix& u);

    /** Apply a circuit gate (unitary kinds; kI/kBarrier are no-ops). */
    void ApplyGate(const Gate& gate);

    /** Apply all unitary gates of a circuit in order. */
    void ApplyCircuit(const Circuit& circuit);

    /** Probability that qubit @p q reads 1. */
    double ProbabilityOne(int q) const;

    /** Full probability distribution over basis states. */
    std::vector<double> Probabilities() const;

    /** Project qubit @p q onto @p outcome and renormalize (one fused
     *  pass plus the rescale). */
    void Collapse(int q, bool outcome);

    /** The damping jump K1 = |0><1| on @p q, renormalized. */
    void DampJump(int q);

    /** The no-jump Kraus operator |0><0| + @p keep |1><1| on @p q
     *  (keep = sqrt(1 - gamma)), renormalized. */
    void DampNoJump(int q, double keep);

    /** Inner product <this|other>. */
    Complex InnerProduct(const StateVector& other) const;

    /** Squared overlap |<this|other>|^2. */
    double Fidelity(const StateVector& other) const;

    /** L2 norm (should be ~1). */
    double Norm() const;

  private:
    /** Scale every amplitude by 1/sqrt(@p sum_sq), the state's squared
     *  norm summed in ascending index order. */
    void Rescale(double sum_sq);

    int num_qubits_;
    std::vector<Complex> amps_;
};

/**
 * Full unitary matrix of a circuit (tests only; dimension 2^n).
 */
Matrix CircuitUnitary(const Circuit& circuit);

}  // namespace xtalk

#endif  // XTALK_SIM_STATEVECTOR_H
