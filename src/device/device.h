/**
 * @file
 * A simulated NISQ device: topology + daily calibration + hidden crosstalk
 * ground truth + hardware scheduling traits.
 *
 * The accessor split is deliberate:
 *  - "calibration view" methods (CxError, T1, durations, ...) model the
 *    data IBM publishes daily and are what the compiler may read;
 *  - "ground truth" methods (ConditionalCxError, ground_truth()) are what
 *    the noise simulator uses to corrupt states, and what tests use as an
 *    oracle. The scheduler must get crosstalk data from characterization.
 */
#ifndef XTALK_DEVICE_DEVICE_H
#define XTALK_DEVICE_DEVICE_H

#include <string>
#include <vector>

#include "circuit/gate.h"
#include "device/calibration.h"
#include "device/crosstalk_model.h"
#include "device/topology.h"

namespace xtalk {

/** Hardware scheduling traits (paper Section 7.2, IBMQ-specific). */
struct DeviceTraits {
    /** All readouts must start simultaneously (right-aligned schedules). */
    bool simultaneous_readout = true;
    /** Circuit-level ISA cannot express partial gate overlap. */
    bool no_partial_overlap = true;
};

/** A simulated quantum device. */
class Device {
  public:
    Device(std::string name, Topology topology,
           std::vector<QubitCalibration> qubits,
           std::vector<EdgeCalibration> couplers,
           CrosstalkGroundTruth ground_truth, DeviceTraits traits,
           uint64_t drift_seed);

    const std::string& name() const { return name_; }
    const Topology& topology() const { return topology_; }
    const DeviceTraits& traits() const { return traits_; }
    int num_qubits() const { return topology_.num_qubits(); }

    /** Calibration day (affects drift); defaults to 0. */
    int day() const { return day_; }
    void SetDay(int day) { day_ = day; }

    /** Seed of the daily drift. The spec format does not carry it, so
     *  two devices with one spec text can differ in every drifted rate. */
    uint64_t drift_seed() const { return drift_.seed(); }

    // -- Calibration view (published daily; safe for the compiler) --------

    /** Independent CNOT error rate on a coupler, with daily drift. */
    double CxError(EdgeId e) const;
    /** CNOT duration in nanoseconds. */
    double CxDuration(EdgeId e) const;
    double SqError(QubitId q) const;
    double SqDuration(QubitId q) const;
    double ReadoutError(QubitId q) const;
    double ReadoutDuration(QubitId q) const;
    double T1us(QubitId q) const;
    double T2us(QubitId q) const;
    /** min(T1, T2) in nanoseconds — the paper's usable lifetime q.T. */
    double CoherenceTimeNs(QubitId q) const;

    /** Duration of an IR gate in nanoseconds (0 for barriers and u1). */
    double GateDuration(const Gate& gate) const;

    /** Independent error rate of an IR gate (0 for barriers). */
    double GateError(const Gate& gate) const;

    // -- Ground truth (simulator / test oracle only) -----------------------

    /**
     * Conditional CNOT error E(victim | aggressor) on the current day.
     * Falls back to the independent rate when no crosstalk entry exists.
     */
    double ConditionalCxError(EdgeId victim, EdgeId aggressor) const;

    /** True if the unordered pair exceeds the 3x threshold today. */
    bool IsHighCrosstalkPair(EdgeId e1, EdgeId e2,
                             double threshold = 3.0) const;

    const CrosstalkGroundTruth& ground_truth() const { return ground_truth_; }

    /** Raw (day-0, drift-free) calibration records. */
    const std::vector<QubitCalibration>& qubit_calibrations() const
    {
        return qubit_cal_;
    }
    const std::vector<EdgeCalibration>& edge_calibrations() const
    {
        return edge_cal_;
    }

  private:
    std::string name_;
    Topology topology_;
    std::vector<QubitCalibration> qubit_cal_;
    std::vector<EdgeCalibration> edge_cal_;
    CrosstalkGroundTruth ground_truth_;
    DeviceTraits traits_;
    DriftModel drift_;
    int day_ = 0;
};

}  // namespace xtalk

#endif  // XTALK_DEVICE_DEVICE_H
