#include "circuit/gate.h"

#include <sstream>

#include "common/error.h"

namespace xtalk {

std::string_view
GateKindName(GateKind kind)
{
    switch (kind) {
      case GateKind::kI: return "id";
      case GateKind::kX: return "x";
      case GateKind::kY: return "y";
      case GateKind::kZ: return "z";
      case GateKind::kH: return "h";
      case GateKind::kS: return "s";
      case GateKind::kSdg: return "sdg";
      case GateKind::kT: return "t";
      case GateKind::kTdg: return "tdg";
      case GateKind::kSX: return "sx";
      case GateKind::kRX: return "rx";
      case GateKind::kRY: return "ry";
      case GateKind::kRZ: return "rz";
      case GateKind::kU1: return "u1";
      case GateKind::kU2: return "u2";
      case GateKind::kU3: return "u3";
      case GateKind::kCX: return "cx";
      case GateKind::kCZ: return "cz";
      case GateKind::kSwap: return "swap";
      case GateKind::kBarrier: return "barrier";
      case GateKind::kMeasure: return "measure";
    }
    XTALK_ASSERT(false, "unknown gate kind");
}

int
GateKindNumParams(GateKind kind)
{
    switch (kind) {
      case GateKind::kRX:
      case GateKind::kRY:
      case GateKind::kRZ:
      case GateKind::kU1:
        return 1;
      case GateKind::kU2:
        return 2;
      case GateKind::kU3:
        return 3;
      default:
        return 0;
    }
}

int
GateKindNumQubits(GateKind kind)
{
    switch (kind) {
      case GateKind::kCX:
      case GateKind::kCZ:
      case GateKind::kSwap:
        return 2;
      case GateKind::kBarrier:
        return -1;
      default:
        return 1;
    }
}

std::string
ToString(const Gate& gate)
{
    std::ostringstream oss;
    oss << GateKindName(gate.kind);
    if (!gate.params.empty()) {
        oss << "(";
        for (size_t i = 0; i < gate.params.size(); ++i) {
            if (i > 0) {
                oss << ", ";
            }
            oss << gate.params[i];
        }
        oss << ")";
    }
    for (size_t i = 0; i < gate.qubits.size(); ++i) {
        oss << (i == 0 ? " q" : ", q") << gate.qubits[i];
    }
    if (gate.IsMeasure()) {
        oss << " -> c" << gate.cbit;
    }
    return oss.str();
}

}  // namespace xtalk
