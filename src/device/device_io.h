/**
 * @file
 * Text format for device definitions, so downstream users can model
 * their own hardware without recompiling. Line-oriented:
 *
 *     # comment
 *     device <name>
 *     qubits <n>
 *     traits <simultaneous_readout 0|1> <no_partial_overlap 0|1>
 *     qubit <id> t1_us <v> t2_us <v> readout_err <v> sq_err <v> \
 *           sq_ns <v> readout_ns <v>
 *     edge <a> <b> cx_err <v> cx_ns <v>
 *     crosstalk <victim_a> <victim_b> <aggr_a> <aggr_b> factor <v>
 *
 * Edge ids are assigned in declaration order; `crosstalk` lines name the
 * couplers by their endpoint qubits and create one directed ground-truth
 * entry each.
 */
#ifndef XTALK_DEVICE_DEVICE_IO_H
#define XTALK_DEVICE_DEVICE_IO_H

#include <string>

#include "device/device.h"

namespace xtalk {

/**
 * Largest `qubits` count a spec may declare: 50x the largest built-in
 * device. The topology's all-pairs distance table is n x n ints, 4 MB
 * at this limit.
 */
inline constexpr int kMaxSpecQubits = 1024;

/** Parse a device spec; throws xtalk::Error with a line number. */
Device ParseDeviceSpec(const std::string& text, uint64_t drift_seed = 99);

/** Serialize a device (including its ground truth) to the spec format. */
std::string SerializeDeviceSpec(const Device& device);

/** Read a device spec from a file. */
Device LoadDeviceSpec(const std::string& path, uint64_t drift_seed = 99);

}  // namespace xtalk

#endif  // XTALK_DEVICE_DEVICE_IO_H
