/**
 * @file
 * Stabilizer tableau (Aaronson-Gottesman, CHP update rules) for n-qubit
 * Clifford unitaries and the stabilizer states they prepare.
 *
 * Row i < n is the destabilizer (the image U X_i U-dagger), row n+i the
 * stabilizer (image of Z_i); each row is a signed Pauli string. Applying
 * a gate g via the Apply* methods produces the tableau of g composed
 * *after* the current unitary, matching circuit execution order. This is
 * exactly what randomized benchmarking needs: accumulate the tableau of
 * the random sequence, then synthesize the gate sequence that reduces it
 * to the identity — that sequence *is* the recovery (inverse) circuit.
 *
 * Read as a state, the same tableau is U|0...0>: its stabilizer rows
 * generate the state's stabilizer group. MeasureQubit collapses it with
 * the CHP measurement rule, after which it describes a state, no longer
 * a unitary. The stabilizer simulator (sim/stabilizer.h) runs every
 * shot on one Tableau this way.
 */
#ifndef XTALK_CLIFFORD_TABLEAU_H
#define XTALK_CLIFFORD_TABLEAU_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"

namespace xtalk {

/** Signed Pauli-string row of a tableau. */
struct TableauRow {
    std::vector<uint64_t> x;  ///< X bits, packed.
    std::vector<uint64_t> z;  ///< Z bits, packed.
    bool r = false;           ///< Sign bit (true = -1).

    bool GetX(int q) const { return (x[q / 64] >> (q % 64)) & 1; }
    bool GetZ(int q) const { return (z[q / 64] >> (q % 64)) & 1; }
    void SetX(int q, bool v);
    void SetZ(int q, bool v);
    /** Identity Pauli with a + sign. */
    void Clear();
};

/** n-qubit Clifford tableau; also a stabilizer state with measurement. */
class Tableau {
  public:
    /** Identity tableau on @p num_qubits qubits. */
    explicit Tableau(int num_qubits);

    /** Tableau of a Clifford circuit (throws on non-Clifford gates). */
    static Tableau FromCircuit(const Circuit& circuit);

    int num_qubits() const { return num_qubits_; }

    /** Destabilizer row i (image of X_i). */
    const TableauRow& destabilizer(int i) const { return rows_[i]; }
    /** Stabilizer row i (image of Z_i). */
    const TableauRow&
    stabilizer(int i) const
    {
        return rows_[num_qubits_ + i];
    }

    // Gate application (composes the gate after the current unitary).
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

    /**
     * Apply a circuit gate. Clifford kinds only; kI and kBarrier are
     * no-ops; throws xtalk::Error for non-Clifford kinds (T, rotations,
     * measure).
     */
    void ApplyGate(const Gate& gate);

    /** True if this is the identity Clifford (up to global phase). */
    bool IsIdentity() const;

    bool operator==(const Tableau& rhs) const;

    /** Canonical byte string for hashing / map keys. */
    std::string Key() const;

    /**
     * Synthesize the gate sequence (in execution order) that maps this
     * Clifford back to the identity: executing the returned circuit after
     * the unitary this tableau represents yields the identity (up to
     * global phase). The tableau is left unchanged.
     *
     * Gates used: H, S, CX, X, Z, Swap.
     */
    Circuit SynthesizeInverse() const;

    /**
     * Synthesize a circuit implementing this Clifford itself (the
     * reversed dagger of SynthesizeInverse).
     */
    Circuit Decompose() const;

    /** Multi-line debug rendering ("+XZI" style rows). */
    std::string ToString() const;

    // Stabilizer-state operations (CHP measurement).

    /** Reset to the identity tableau, i.e. the state |0...0>. */
    void Reset();

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
    int num_qubits_;
    std::vector<TableauRow> rows_;

    /**
     * CHP rowsum: row h *= row i (Pauli product with phase tracking).
     * @p track_phase=false skips the i-power bookkeeping and leaves
     * h.r untouched — required when h is a *destabilizer* row, which
     * may anticommute with i (odd i-power) and whose phase bit the
     * algorithm never reads.
     */
    void RowSum(TableauRow& h, const TableauRow& i,
                bool track_phase = true) const;

    /** Reduce a copy of the tableau to identity, recording gates. */
    static void ReduceToIdentity(Tableau& t, Circuit* out);
};

}  // namespace xtalk

#endif  // XTALK_CLIFFORD_TABLEAU_H
