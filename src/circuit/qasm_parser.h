/**
 * @file
 * Parser for the OpenQASM 2.0 subset this library emits and consumes:
 * one quantum register, one classical register, the qelib1 gates of the
 * IR (id/x/y/z/h/s/sdg/t/tdg/sx/rx/ry/rz/u1/u2/u3/cx/cz/swap), barrier,
 * and measure. A gate parameter is a decimal literal (an optional sign,
 * digits with an optional point, an optional exponent: 0.5, .5, -1E-5)
 * or a `pi`-expression over such literals (pi, -pi, pi/2, 2*pi,
 * 3*pi/4, ...); whitespace inside it is ignored. Any other spelling, a
 * literal that overflows or underflows to zero, and an angle that is
 * not finite are errors.
 *
 * Deliberately not a full OpenQASM implementation: no user-defined
 * gates, no if/reset, no multiple registers — enough to round-trip this
 * library's output and to ingest externally written circuits of the
 * paper's gate set.
 */
#ifndef XTALK_CIRCUIT_QASM_PARSER_H
#define XTALK_CIRCUIT_QASM_PARSER_H

#include <string>

#include "circuit/circuit.h"

namespace xtalk {

/**
 * Largest qreg or creg size ParseQasm accepts: the device-spec limit
 * kMaxSpecQubits (device/device_io.h), since no device holds more
 * qubits. Without a bound, `measure q -> c;` on a huge register would
 * expand into that many gates before any device check runs.
 */
inline constexpr int kMaxQasmRegisterSize = 1024;

/**
 * Parse an OpenQASM 2.0 program. Throws xtalk::Error with a line number
 * on anything outside the supported subset.
 */
Circuit ParseQasm(const std::string& source);

}  // namespace xtalk

#endif  // XTALK_CIRCUIT_QASM_PARSER_H
