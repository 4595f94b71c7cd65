#include "circuit/qasm.h"

#include <charconv>

#include "common/error.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

/** Append an integer in decimal. */
void
AppendInt(std::string& out, int value)
{
    char buffer[16];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer),
                                         value);
    out.append(buffer, end);
}

/** Append "q[i]". */
void
AppendQubit(std::string& out, QubitId q)
{
    out += "q[";
    AppendInt(out, q);
    out += ']';
}

/** Append "(a,b,c)" with enough digits to round-trip: the bytes
 *  std::ostream writes at setprecision(17). */
void
AppendParams(std::string& out, const Gate& gate)
{
    if (gate.params.empty()) {
        return;
    }
    out += '(';
    for (size_t i = 0; i < gate.params.size(); ++i) {
        if (i > 0) {
            out += ',';
        }
        char buffer[32];
        const auto [end, ec] =
            std::to_chars(buffer, buffer + sizeof(buffer), gate.params[i],
                          std::chars_format::general, 17);
        out.append(buffer, end);
    }
    out += ')';
}

}  // namespace

std::string
ToQasm(const Circuit& circuit)
{
    telemetry::ScopedSpan span("compile.qasm_emit");
    std::string out;
    // About 24 bytes a gate; one allocation for most circuits.
    out.reserve(64 + 24 * circuit.gates().size());
    out += "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[";
    AppendInt(out, circuit.num_qubits());
    out += "];\n";
    if (circuit.num_clbits() > 0) {
        out += "creg c[";
        AppendInt(out, circuit.num_clbits());
        out += "];\n";
    }
    for (const Gate& g : circuit.gates()) {
        switch (g.kind) {
          case GateKind::kMeasure:
            out += "measure ";
            AppendQubit(out, g.qubits[0]);
            out += " -> c[";
            AppendInt(out, g.cbit);
            out += "];\n";
            continue;
          case GateKind::kSwap:
            // qelib1 has swap, but emit the canonical 3-CNOT expansion so
            // the output matches the hardware-level IR the paper uses.
            for (const int control : {0, 1, 0}) {
                out += "cx ";
                AppendQubit(out, g.qubits[control]);
                out += ", ";
                AppendQubit(out, g.qubits[1 - control]);
                out += ";\n";
            }
            continue;
          default:
            break;
        }
        // GateKindName spells kI "id" and kBarrier "barrier".
        out += GateKindName(g.kind);
        AppendParams(out, g);
        for (size_t i = 0; i < g.qubits.size(); ++i) {
            out += i > 0 ? ", " : " ";
            AppendQubit(out, g.qubits[i]);
        }
        out += ";\n";
    }
    return out;
}

}  // namespace xtalk
