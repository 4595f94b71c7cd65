/**
 * @file
 * Timed circuits: the output of a scheduler and the input to the noisy
 * simulator. Each gate carries an absolute start time and duration in
 * nanoseconds; the paper's notation g.tau / g.delta maps to start_ns /
 * duration_ns.
 */
#ifndef XTALK_CIRCUIT_SCHEDULE_H
#define XTALK_CIRCUIT_SCHEDULE_H

#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace xtalk {

/** A gate with an assigned start time and duration. */
struct TimedGate {
    Gate gate;
    double start_ns = 0.0;
    double duration_ns = 0.0;

    double end_ns() const { return start_ns + duration_ns; }

    /**
     * True if the two gates overlap in time with nonzero intersection
     * (strict interval overlap; abutting gates do not overlap).
     */
    static bool Overlaps(const TimedGate& a, const TimedGate& b);
};

/** A fully scheduled circuit, kept sorted by start time. */
class ScheduledCircuit {
  public:
    explicit ScheduledCircuit(int num_qubits);

    int num_qubits() const { return num_qubits_; }
    const std::vector<TimedGate>& gates() const { return gates_; }
    int size() const { return static_cast<int>(gates_.size()); }
    bool empty() const { return gates_.empty(); }

    /** Insert a timed gate, maintaining start-time order. */
    void Add(Gate gate, double start_ns, double duration_ns);

    /** Makespan: max end time over all gates (0 when empty). */
    double TotalDuration() const;

    /**
     * Lifetime of a qubit: last finish minus first start over the
     * non-barrier gates touching it (paper constraint 9); 0 if unused.
     */
    double QubitLifetime(QubitId q) const;

    /** Start time of the first non-barrier gate on q; -1 if unused. */
    double FirstStartOn(QubitId q) const;

    /** End time of the last non-barrier gate on q; -1 if unused. */
    double LastEndOn(QubitId q) const;

    /** Untimed circuit with the same gate order (by start time). */
    Circuit ToCircuit() const;

    /** Multi-line "[t0, t1) gate" listing. */
    std::string ToString() const;

  private:
    int num_qubits_;
    std::vector<TimedGate> gates_;
};

}  // namespace xtalk

#endif  // XTALK_CIRCUIT_SCHEDULE_H
