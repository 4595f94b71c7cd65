/**
 * @file
 * Instruction schedulers (paper Table 1).
 *
 *  - SerialScheduler: every instruction in its own time slot — maximal
 *    crosstalk avoidance, maximal decoherence.
 *  - ParallelScheduler ("ParSched"): maximal parallelism, right-aligned
 *    (ALAP) with simultaneous readout, reproducing the IBM hardware
 *    scheduler the paper uses as the state-of-the-art baseline.
 *
 * The crosstalk-adaptive SMT scheduler lives in xtalk_scheduler.h.
 */
#ifndef XTALK_SCHEDULER_SCHEDULER_H
#define XTALK_SCHEDULER_SCHEDULER_H

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "device/device.h"

namespace xtalk {

/** Abstract gate scheduler bound to one device. */
class Scheduler {
  public:
    explicit Scheduler(const Device& device) : device_(&device) {}
    virtual ~Scheduler() = default;

    /**
     * Assign start times to every gate of a hardware-compliant circuit.
     * Data dependencies (program order per qubit, barriers) are always
     * preserved; measures start simultaneously when the device requires
     * it.
     */
    virtual ScheduledCircuit Schedule(const Circuit& circuit) = 0;

    /** Scheduler name for reports ("SerialSched", "ParSched", ...). */
    virtual std::string name() const = 0;

    const Device& device() const { return *device_; }

  protected:
    const Device* device_;
};

/** Fully serial schedule: one gate at a time (Table 1, SerialSched). */
class SerialScheduler : public Scheduler {
  public:
    using Scheduler::Scheduler;
    ScheduledCircuit Schedule(const Circuit& circuit) override;
    std::string name() const override { return "SerialSched"; }
};

/**
 * Maximal-parallelism right-aligned schedule (Table 1, ParSched): the
 * default IBM policy — ALAP so gates execute as late as possible, with
 * all readouts simultaneous at the end.
 */
class ParallelScheduler : public Scheduler {
  public:
    using Scheduler::Scheduler;
    ScheduledCircuit Schedule(const Circuit& circuit) override;
    std::string name() const override { return "ParSched"; }
};

/**
 * Append @p measures to @p schedule once every other gate is placed:
 * all at one start, the latest @p qubit_ready among the measured
 * qubits, when the device requires simultaneous readout; otherwise
 * each as soon as its qubit is free.
 */
void AppendMeasures(ScheduledCircuit* schedule, const Device& device,
                    const std::vector<Gate>& measures,
                    const std::vector<double>& qubit_ready);

/**
 * Forward ASAP schedule (helper used by tests and as a building block;
 * same parallelism as ParSched but left-aligned, readout at the end).
 */
ScheduledCircuit AsapSchedule(const Circuit& circuit, const Device& device);

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_SCHEDULER_H
