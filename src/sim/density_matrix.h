/**
 * @file
 * Exact density-matrix simulator for small registers.
 *
 * Evolves the full mixed state under the same noise channels the
 * trajectory engine samples — depolarizing gate noise, amplitude
 * damping, dephasing, and readout confusion — but *deterministically*,
 * by applying the channels' Kraus maps. Exponentially more expensive
 * than the state-vector trajectories (dimension 4^n), so it is used for
 * exact evaluation and for validating the Monte-Carlo engine (their
 * outcome distributions must agree in expectation), not for bulk
 * experiment execution.
 */
#ifndef XTALK_SIM_DENSITY_MATRIX_H
#define XTALK_SIM_DENSITY_MATRIX_H

#include <vector>

#include "circuit/circuit.h"
#include "common/matrix.h"

namespace xtalk {

/** Mixed n-qubit quantum state (dense, row-major 2^n x 2^n). */
class DensityMatrix {
  public:
    /** Initialize to |0..0><0..0| on @p num_qubits qubits (n <= 10). */
    explicit DensityMatrix(int num_qubits);

    int num_qubits() const { return num_qubits_; }
    size_t dimension() const { return dim_; }
    const Matrix& matrix() const { return rho_; }

    /** rho -> U rho U+ for a 1-qubit unitary on @p q. */
    void Apply1Q(int q, const Matrix& u);

    /** rho -> U rho U+ for a 2-qubit unitary (q_low = low tensor bit). */
    void Apply2Q(int q_low, int q_high, const Matrix& u);

    /** Apply a unitary circuit gate (kI / kBarrier are no-ops). */
    void ApplyGate(const Gate& gate);

    /**
     * Depolarizing channel on the gate's qubits with probability @p p:
     * with probability p the state is replaced by a uniform mixture over
     * the non-identity Paulis (matching the trajectory engine's uniform
     * random-Pauli injection).
     */
    void ApplyDepolarizing(const Gate::Qubits& qubits, double p);

    /** Amplitude damping channel on @p q with decay probability gamma. */
    void ApplyAmplitudeDamping(int q, double gamma);

    /** Phase damping: Z flip with probability @p p_flip on @p q. */
    void ApplyDephasing(int q, double p_flip);

    /** Classical readout confusion (symmetric flip) on @p q. */
    void ApplyReadoutFlip(int q, double p_flip);

    /** Diagonal of rho: exact outcome probabilities. */
    std::vector<double> Probabilities() const;

    /** Tr(rho); should remain ~1. */
    double Trace() const;

    /** Purity Tr(rho^2) in [1/2^n, 1]. */
    double Purity() const;

    /** Fidelity <psi| rho |psi> with a pure state's amplitude vector. */
    double FidelityWithPure(const std::vector<Complex>& amplitudes) const;

  private:
    int num_qubits_;
    size_t dim_;
    Matrix rho_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_DENSITY_MATRIX_H
