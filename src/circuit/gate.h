/**
 * @file
 * Gate definitions for the circuit IR.
 *
 * The gate set mirrors the IBMQ basis the paper compiles to (u1/u2/u3 +
 * CNOT + measure + barrier) plus the named Clifford gates the RB module
 * synthesizes, and a logical SWAP that the transpiler lowers to 3 CNOTs.
 */
#ifndef XTALK_CIRCUIT_GATE_H
#define XTALK_CIRCUIT_GATE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "common/inline_vector.h"

namespace xtalk {

/** Hardware qubit or program qubit index. */
using QubitId = int;

/** Classical bit index for measurement results. */
using ClbitId = int;

/** Supported gate kinds. */
enum class GateKind {
    kI,        ///< Identity (explicit idle).
    kX,        ///< Pauli X.
    kY,        ///< Pauli Y.
    kZ,        ///< Pauli Z.
    kH,        ///< Hadamard.
    kS,        ///< Phase gate sqrt(Z).
    kSdg,      ///< Inverse phase gate.
    kT,        ///< T gate.
    kTdg,      ///< Inverse T gate.
    kSX,       ///< sqrt(X).
    kRX,       ///< X rotation; params[0] = theta.
    kRY,       ///< Y rotation; params[0] = theta.
    kRZ,       ///< Z rotation; params[0] = theta.
    kU1,       ///< IBM u1(lambda): diagonal phase.
    kU2,       ///< IBM u2(phi, lambda).
    kU3,       ///< IBM u3(theta, phi, lambda): generic 1q unitary.
    kCX,       ///< CNOT; qubits = {control, target}.
    kCZ,       ///< Controlled-Z.
    kSwap,     ///< Logical SWAP (lowered to 3 CNOTs by the transpiler).
    kBarrier,  ///< Scheduling barrier over its qubits.
    kMeasure,  ///< Z-basis readout into a classical bit.
};

/** A gate instance in a circuit. */
struct Gate {
    /** Operands, in place up to two qubits (every kind but a barrier)
     *  and three parameters (u3), so copying a gate allocates nothing. */
    using Qubits = InlineVector<QubitId, 2>;
    using Params = InlineVector<double, 3>;

    GateKind kind = GateKind::kI;
    Qubits qubits;
    Params params;
    ClbitId cbit = -1;  ///< Valid only for kMeasure.

    /** Number of qubits this gate kind acts on (barriers vary). */
    int NumQubits() const { return static_cast<int>(qubits.size()); }

    bool IsBarrier() const { return kind == GateKind::kBarrier; }
    bool IsMeasure() const { return kind == GateKind::kMeasure; }

    /** True for unitary (non-barrier, non-measure) gates. */
    bool IsUnitary() const { return !IsBarrier() && !IsMeasure(); }

    /** True for unitary gates on exactly two qubits. */
    bool
    IsTwoQubitUnitary() const
    {
        return IsUnitary() && qubits.size() == 2;
    }

    /** True for unitary gates on exactly one qubit. */
    bool
    IsSingleQubitUnitary() const
    {
        return IsUnitary() && qubits.size() == 1;
    }

    bool operator==(const Gate& rhs) const = default;
};
// A cold characterization holds a few hundred thousand gates at once.
static_assert(sizeof(Gate) <= 64, "Gate grew past a cache line");

/** Lower-case mnemonic for a gate kind ("cx", "u3", ...): its qelib1
 *  name, except kBarrier and kMeasure, which name statements. */
std::string_view GateKindName(GateKind kind);

/** Number of required parameters for a gate kind. */
int GateKindNumParams(GateKind kind);

/**
 * Number of qubits a gate kind acts on; -1 for variadic kinds (barrier).
 */
int GateKindNumQubits(GateKind kind);

/** Human-readable one-line rendering, e.g. "cx q3, q4". */
std::string ToString(const Gate& gate);

}  // namespace xtalk

#endif  // XTALK_CIRCUIT_GATE_H
