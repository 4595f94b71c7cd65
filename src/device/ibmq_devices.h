/**
 * @file
 * Factories for the three 20-qubit IBMQ devices evaluated in the paper
 * (Poughkeepsie, Johannesburg, Boeblingen) plus synthetic line/grid
 * devices for tests and scaling studies.
 *
 * Coupling maps follow the published device layouts. Calibration values
 * are sampled (seeded) around the averages the paper reports: CNOT error
 * 0.5-6.5% (avg 1.8%), single-qubit error < 0.1%, readout error avg 4.8%,
 * T1/T2 in 10-100 us. High-crosstalk pairs are injected on 1-hop
 * separated couplers with 3-11x conditional degradation, including the
 * pairs the paper names explicitly (e.g. Poughkeepsie CX10,15 | CX11,12
 * at ~1% -> ~11%, and the low-coherence qubit 10 from the Figure 6 case
 * study).
 */
#ifndef XTALK_DEVICE_IBMQ_DEVICES_H
#define XTALK_DEVICE_IBMQ_DEVICES_H

#include <cstdint>

#include "device/device.h"

namespace xtalk {

/** IBMQ Poughkeepsie: 20 qubits, 23 couplers, 5 high-crosstalk pairs. */
Device MakePoughkeepsie(uint64_t seed = 20190726);

/** IBMQ Johannesburg: 20 qubits, 22 couplers, 5 high-crosstalk pairs. */
Device MakeJohannesburg(uint64_t seed = 20190801);

/** IBMQ Boeblingen: 20 qubits, 23 couplers, 7 high-crosstalk pairs. */
Device MakeBoeblingen(uint64_t seed = 20190815);

/** All three paper devices, in paper order. */
std::vector<Device> MakePaperDevices();

/**
 * A 1-D chain of @p num_qubits qubits with optional high-crosstalk pairs
 * between alternating couplers; handy for unit tests.
 */
Device MakeLinearDevice(int num_qubits, uint64_t seed = 7,
                        bool with_crosstalk = false);

/**
 * A rows x cols grid device for scaling studies (supremacy-style
 * workloads).
 */
Device MakeGridDevice(int rows, int cols, uint64_t seed = 11,
                      bool with_crosstalk = true);

}  // namespace xtalk

#endif  // XTALK_DEVICE_IBMQ_DEVICES_H
