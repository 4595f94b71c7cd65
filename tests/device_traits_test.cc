/**
 * @file
 * Scheduler behaviour under device-trait variations: the paper's IBMQ
 * constraints (simultaneous readout, no partial overlap at the
 * circuit-level ISA) are traits of the device, and its footnote 2 notes
 * that OpenPulse-era backends relax them. These tests exercise the
 * non-IBMQ paths.
 */
#include <gtest/gtest.h>

#include "device/ibmq_devices.h"
#include "scheduler/analysis.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"

namespace xtalk {
namespace {

/** Clone a device with altered traits. */
Device
WithTraits(const Device& device, DeviceTraits traits)
{
    return Device(device.name(), device.topology(),
                  device.qubit_calibrations(), device.edge_calibrations(),
                  device.ground_truth(), traits, 1234);
}

TEST(DeviceTraits, PerQubitReadoutAllowsEarlyMeasurement)
{
    const Device ibm = MakePoughkeepsie();
    DeviceTraits traits;
    traits.simultaneous_readout = false;
    traits.no_partial_overlap = false;
    const Device pulse = WithTraits(ibm, traits);

    // Qubit 0 finishes long before qubit 10's chain; with per-qubit
    // readout its measure may start earlier.
    Circuit c(20);
    c.H(0);
    c.CX(10, 15).CX(15, 10).CX(10, 15);
    c.Measure(0, 0).Measure(10, 1);

    // ALAP (ParSched) right-aligns every chain against readout, hiding
    // the trait; the left-aligned ASAP schedule exposes it.
    const ScheduledCircuit s_ibm = AsapSchedule(c, ibm);
    const ScheduledCircuit s_pulse = AsapSchedule(c, pulse);

    auto measure_start = [](const ScheduledCircuit& s, QubitId q) {
        for (const TimedGate& tg : s.gates()) {
            if (tg.gate.IsMeasure() && tg.gate.qubits[0] == q) {
                return tg.start_ns;
            }
        }
        return -1.0;
    };
    // IBM trait: both measures aligned.
    EXPECT_NEAR(measure_start(s_ibm, 0), measure_start(s_ibm, 10), 1e-9);
    // Pulse trait: qubit 0 reads out strictly earlier.
    EXPECT_LT(measure_start(s_pulse, 0), measure_start(s_pulse, 10));
}

TEST(DeviceTraits, PerQubitReadoutShortensIdleLifetime)
{
    const Device ibm = MakePoughkeepsie();
    DeviceTraits traits;
    traits.simultaneous_readout = false;
    const Device pulse = WithTraits(ibm, traits);
    Circuit c(20);
    c.H(0);
    c.CX(10, 15).CX(15, 10).CX(10, 15);
    c.Measure(0, 0).Measure(10, 1);
    // With early readout (ASAP view), qubit 0's lifetime shrinks: its
    // measure no longer waits for the long chain on qubits 10/15.
    EXPECT_LT(AsapSchedule(c, pulse).QubitLifetime(0),
              AsapSchedule(c, ibm).QubitLifetime(0));
}

TEST(DeviceTraits, XtalkSchedHonorsPerQubitReadout)
{
    const Device ibm = MakePoughkeepsie();
    DeviceTraits traits;
    traits.simultaneous_readout = false;
    traits.no_partial_overlap = false;
    const Device pulse = WithTraits(ibm, traits);
    const auto characterization = GroundTruthCharacterization(pulse);

    Circuit c(20);
    c.H(0).CX(10, 15).CX(11, 12);
    c.Measure(0, 0).Measure(10, 1).Measure(11, 2);
    XtalkScheduler scheduler(pulse, characterization);
    const ScheduledCircuit s = scheduler.Schedule(c);
    // Crosstalk still serialized...
    const auto estimate = EstimateScheduleError(s, pulse, characterization);
    EXPECT_EQ(estimate.crosstalk_overlaps, 0);
    // ... and measures are free to start at different times (qubit 0's
    // readout does not wait for the serialized CNOT chain).
    double start0 = -1.0, start10 = -1.0;
    for (const TimedGate& tg : s.gates()) {
        if (tg.gate.IsMeasure() && tg.gate.qubits[0] == 0) {
            start0 = tg.start_ns;
        }
        if (tg.gate.IsMeasure() && tg.gate.qubits[0] == 10) {
            start10 = tg.start_ns;
        }
    }
    EXPECT_LT(start0, start10);
}

TEST(DeviceTraits, PartialOverlapRelaxationKeepsCrosstalkAvoidance)
{
    // Relaxing the no-partial-overlap ISA constraint must not reintroduce
    // high-crosstalk overlaps — the overlap indicators still drive the
    // objective.
    const Device ibm = MakePoughkeepsie();
    DeviceTraits traits;
    traits.no_partial_overlap = false;
    const Device pulse = WithTraits(ibm, traits);
    const auto characterization = GroundTruthCharacterization(pulse);
    Circuit c(20);
    c.CX(10, 15).CX(11, 12).CX(13, 14).CX(18, 19);
    c.Measure(10, 0).Measure(13, 1);
    XtalkScheduler scheduler(pulse, characterization);
    const auto estimate = EstimateScheduleError(
        scheduler.Schedule(c), pulse, characterization);
    EXPECT_EQ(estimate.crosstalk_overlaps, 0);
}

TEST(DeviceTraits, IbmTraitsAreTheDefault)
{
    const Device device = MakeBoeblingen();
    EXPECT_TRUE(device.traits().simultaneous_readout);
    EXPECT_TRUE(device.traits().no_partial_overlap);
}

}  // namespace
}  // namespace xtalk
