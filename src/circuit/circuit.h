/**
 * @file
 * Circuit IR: an ordered list of gates over a fixed qubit register, with a
 * fluent builder API. Program order defines the data-dependency semantics
 * (the DAG in dag.h recovers the partial order).
 */
#ifndef XTALK_CIRCUIT_CIRCUIT_H
#define XTALK_CIRCUIT_CIRCUIT_H

#include <string>
#include <vector>

#include "circuit/gate.h"

namespace xtalk {

/** Index of a gate within a circuit. */
using GateId = int;

/** A quantum circuit over a fixed-size qubit register. */
class Circuit {
  public:
    /** Create an empty circuit on @p num_qubits qubits. */
    explicit Circuit(int num_qubits);

    int num_qubits() const { return num_qubits_; }

    /** Number of classical bits (1 + highest measure target, or 0). */
    int num_clbits() const { return num_clbits_; }

    const std::vector<Gate>& gates() const { return gates_; }
    const Gate& gate(GateId id) const;
    int size() const { return static_cast<int>(gates_.size()); }
    bool empty() const { return gates_.empty(); }

    /** Append a validated gate; returns its GateId. */
    GateId Add(Gate gate);

    // Fluent builder helpers. Each returns *this for chaining.
    Circuit& I(QubitId q);
    Circuit& X(QubitId q);
    Circuit& Y(QubitId q);
    Circuit& Z(QubitId q);
    Circuit& H(QubitId q);
    Circuit& S(QubitId q);
    Circuit& Sdg(QubitId q);
    Circuit& T(QubitId q);
    Circuit& Tdg(QubitId q);
    Circuit& SX(QubitId q);
    Circuit& RX(double theta, QubitId q);
    Circuit& RY(double theta, QubitId q);
    Circuit& RZ(double theta, QubitId q);
    Circuit& U1(double lambda, QubitId q);
    Circuit& U2(double phi, double lambda, QubitId q);
    Circuit& U3(double theta, double phi, double lambda, QubitId q);
    Circuit& CX(QubitId control, QubitId target);
    Circuit& CZ(QubitId a, QubitId b);
    Circuit& Swap(QubitId a, QubitId b);
    Circuit& Barrier(const std::vector<QubitId>& qubits);
    /** Barrier across every qubit in the register. */
    Circuit& BarrierAll();
    Circuit& Measure(QubitId q, ClbitId c);
    /** Measure qubit i into classical bit i, for all qubits. */
    Circuit& MeasureAll();

    /** Append all gates of another circuit (same register width). */
    Circuit& Append(const Circuit& other);

    /**
     * Append @p other with its qubit i mapped to @p qubit_map[i] (and
     * classical bits offset by @p clbit_offset).
     */
    Circuit& AppendMapped(const Circuit& other,
                          const std::vector<QubitId>& qubit_map,
                          int clbit_offset = 0);

    /** Count gates of one kind. */
    int CountKind(GateKind kind) const;

    /** Count two-qubit unitary gates. */
    int CountTwoQubitGates() const;

    /** Qubits touched by at least one gate, ascending. */
    std::vector<QubitId> ActiveQubits() const;

    /**
     * Circuit depth: longest dependency chain counting unitary and measure
     * gates (barriers contribute ordering but no depth).
     */
    int Depth() const;

    /** Multi-line OpenQASM-flavored listing. */
    std::string ToString() const;

    /**
     * Throw Error, naming the qubit, when a non-barrier operation acts on
     * a qubit after that qubit was measured. Compilation needs every
     * measurement terminal: the router and the schedulers move
     * measurements past the rest of the circuit.
     */
    void RequireTerminalMeasures() const;

  private:
    void Validate(const Gate& gate) const;

    int num_qubits_ = 0;
    int num_clbits_ = 0;
    std::vector<Gate> gates_;
};

}  // namespace xtalk

#endif  // XTALK_CIRCUIT_CIRCUIT_H
