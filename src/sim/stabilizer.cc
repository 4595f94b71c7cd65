#include "sim/stabilizer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

void
StabilizerState::Row::SetX(int q, bool v)
{
    const uint64_t mask = 1ull << (q % 64);
    if (v) {
        x[q / 64] |= mask;
    } else {
        x[q / 64] &= ~mask;
    }
}

void
StabilizerState::Row::SetZ(int q, bool v)
{
    const uint64_t mask = 1ull << (q % 64);
    if (v) {
        z[q / 64] |= mask;
    } else {
        z[q / 64] &= ~mask;
    }
}

void
StabilizerState::Row::Clear()
{
    std::fill(x.begin(), x.end(), 0);
    std::fill(z.begin(), z.end(), 0);
    r = false;
}

StabilizerState::StabilizerState(int num_qubits)
    : num_qubits_(num_qubits),
      words_((static_cast<size_t>(num_qubits) + 63) / 64)
{
    XTALK_REQUIRE(num_qubits > 0, "stabilizer state needs >= 1 qubit");
    rows_.assign(2 * num_qubits,
                 Row{std::vector<uint64_t>(words_, 0),
                     std::vector<uint64_t>(words_, 0), false});
    Reset();
}

void
StabilizerState::Reset()
{
    for (auto& row : rows_) {
        row.Clear();
    }
    for (int i = 0; i < num_qubits_; ++i) {
        rows_[i].SetX(i, true);                 // Destabilizer X_i.
        rows_[num_qubits_ + i].SetZ(i, true);   // Stabilizer Z_i.
    }
}

void
StabilizerState::ApplyH(int q)
{
    for (auto& row : rows_) {
        const bool x = row.GetX(q);
        const bool z = row.GetZ(q);
        row.r ^= x && z;
        row.SetX(q, z);
        row.SetZ(q, x);
    }
}

void
StabilizerState::ApplyS(int q)
{
    for (auto& row : rows_) {
        const bool x = row.GetX(q);
        const bool z = row.GetZ(q);
        row.r ^= x && z;
        row.SetZ(q, x != z);
    }
}

void
StabilizerState::ApplySdg(int q)
{
    ApplyS(q);
    ApplyS(q);
    ApplyS(q);
}

void
StabilizerState::ApplyX(int q)
{
    for (auto& row : rows_) {
        row.r ^= row.GetZ(q);
    }
}

void
StabilizerState::ApplyY(int q)
{
    for (auto& row : rows_) {
        row.r ^= row.GetX(q) != row.GetZ(q);
    }
}

void
StabilizerState::ApplyZ(int q)
{
    for (auto& row : rows_) {
        row.r ^= row.GetX(q);
    }
}

void
StabilizerState::ApplySX(int q)
{
    ApplyH(q);
    ApplyS(q);
    ApplyH(q);
}

void
StabilizerState::ApplyCX(int control, int target)
{
    XTALK_REQUIRE(control != target, "CX needs distinct qubits");
    for (auto& row : rows_) {
        const bool xc = row.GetX(control);
        const bool zc = row.GetZ(control);
        const bool xt = row.GetX(target);
        const bool zt = row.GetZ(target);
        row.r ^= xc && zt && (xt == zc);
        row.SetX(target, xt != xc);
        row.SetZ(control, zc != zt);
    }
}

void
StabilizerState::ApplyCZ(int a, int b)
{
    ApplyH(b);
    ApplyCX(a, b);
    ApplyH(b);
}

void
StabilizerState::ApplySwap(int a, int b)
{
    ApplyCX(a, b);
    ApplyCX(b, a);
    ApplyCX(a, b);
}

void
StabilizerState::ApplyGate(const Gate& gate)
{
    switch (gate.kind) {
      case GateKind::kI:
      case GateKind::kBarrier:
        return;
      case GateKind::kH: ApplyH(gate.qubits[0]); return;
      case GateKind::kS: ApplyS(gate.qubits[0]); return;
      case GateKind::kSdg: ApplySdg(gate.qubits[0]); return;
      case GateKind::kX: ApplyX(gate.qubits[0]); return;
      case GateKind::kY: ApplyY(gate.qubits[0]); return;
      case GateKind::kZ: ApplyZ(gate.qubits[0]); return;
      case GateKind::kSX: ApplySX(gate.qubits[0]); return;
      case GateKind::kCX:
        ApplyCX(gate.qubits[0], gate.qubits[1]);
        return;
      case GateKind::kCZ:
        ApplyCZ(gate.qubits[0], gate.qubits[1]);
        return;
      case GateKind::kSwap:
        ApplySwap(gate.qubits[0], gate.qubits[1]);
        return;
      default:
        XTALK_REQUIRE(false, "non-Clifford gate in stabilizer simulation: "
                                 << xtalk::ToString(gate));
    }
}

void
StabilizerState::RowSum(Row& h, const Row& i, bool track_phase) const
{
    if (track_phase) {
        // Phase exponent of i^k in the product, tracked mod 4 (CHP's g).
        int phase = (h.r ? 2 : 0) + (i.r ? 2 : 0);
        for (int q = 0; q < num_qubits_; ++q) {
            const int x1 = i.GetX(q), z1 = i.GetZ(q);
            const int x2 = h.GetX(q), z2 = h.GetZ(q);
            if (x1 == 0 && z1 == 0) {
                continue;
            }
            if (x1 == 1 && z1 == 1) {
                phase += z2 - x2;                 // Y * P.
            } else if (x1 == 1) {
                phase += z2 * (2 * x2 - 1);       // X * P.
            } else {
                phase += x2 * (1 - 2 * z2);       // Z * P.
            }
        }
        phase = ((phase % 4) + 4) % 4;
        XTALK_ASSERT(phase == 0 || phase == 2, "rowsum produced odd i-power");
        h.r = (phase == 2);
    }
    for (size_t w = 0; w < words_; ++w) {
        h.x[w] ^= i.x[w];
        h.z[w] ^= i.z[w];
    }
}

double
StabilizerState::ProbabilityOne(int q) const
{
    for (int p = num_qubits_; p < 2 * num_qubits_; ++p) {
        if (rows_[p].GetX(q)) {
            return 0.5;  // Z_q anticommutes with a stabilizer: random.
        }
    }
    // Deterministic: accumulate destabilizer partners into scratch.
    Row scratch{std::vector<uint64_t>(words_, 0),
                std::vector<uint64_t>(words_, 0), false};
    for (int i = 0; i < num_qubits_; ++i) {
        if (rows_[i].GetX(q)) {
            RowSum(scratch, rows_[i + num_qubits_]);
        }
    }
    return scratch.r ? 1.0 : 0.0;
}

bool
StabilizerState::MeasureQubit(int q, Rng& rng)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    int p = -1;
    for (int row = num_qubits_; row < 2 * num_qubits_; ++row) {
        if (rows_[row].GetX(q)) {
            p = row;
            break;
        }
    }
    if (p >= 0) {
        // Random outcome. Destabilizer rows may anticommute with row p
        // (odd i-power), but their phase bits are never read — skip the
        // phase bookkeeping for them instead of asserting on it.
        for (int row = 0; row < 2 * num_qubits_; ++row) {
            if (row != p && rows_[row].GetX(q)) {
                RowSum(rows_[row], rows_[p],
                       /*track_phase=*/row >= num_qubits_);
            }
        }
        rows_[p - num_qubits_] = rows_[p];
        rows_[p].Clear();
        const bool outcome = rng.Bernoulli(0.5);
        rows_[p].SetZ(q, true);
        rows_[p].r = outcome;
        return outcome;
    }
    // Deterministic outcome.
    Row scratch{std::vector<uint64_t>(words_, 0),
                std::vector<uint64_t>(words_, 0), false};
    for (int i = 0; i < num_qubits_; ++i) {
        if (rows_[i].GetX(q)) {
            RowSum(scratch, rows_[i + num_qubits_]);
        }
    }
    return scratch.r;
}

StabilizerSimulator::StabilizerSimulator(const Device& device,
                                         NoisySimOptions options)
    : device_(&device), options_(options), rng_(options.seed)
{
}

Counts
StabilizerSimulator::Run(const ScheduledCircuit& schedule,
                         const RunSpec& spec)
{
    const int shots = spec.shots;
    XTALK_REQUIRE(shots > 0, "shots must be positive");
    if (spec.seed_override) {
        rng_ = Rng(*spec.seed_override);
    }
    telemetry::ScopedSpan span("sim.stabilizer.run");
    if (telemetry::Enabled()) {
        telemetry::SetLabel("sim.backend", "stabilizer");
        telemetry::GetCounter("sim.stabilizer.runs").Add(1);
        telemetry::GetCounter("sim.stabilizer.shots")
            .Add(static_cast<uint64_t>(shots));
        telemetry::GetCounter("sim.shots")
            .Add(static_cast<uint64_t>(shots));
    }
    const RunPlan plan = BuildRunPlan(*device_, options_, schedule);
    if (telemetry::Enabled()) {
        uint64_t unitaries = 0;
        for (const RunPlan::Op& op : plan.ops) {
            unitaries += op.gate.IsMeasure() ? 0 : 1;
        }
        telemetry::GetCounter("sim.stabilizer.gate_applications")
            .Add(unitaries * static_cast<uint64_t>(shots));
    }

    auto decay = [&](StabilizerState& state, const RunPlan::Decay& d) {
        // Pauli twirl of amplitude damping.
        const double px = d.gamma / 4.0;
        const double pz_ad =
            (1.0 - d.gamma / 2.0 - std::sqrt(1.0 - d.gamma)) / 2.0;
        const double u = rng_.Uniform();
        if (u < px) {
            state.ApplyX(d.qubit);
        } else if (u < 2.0 * px) {
            state.ApplyY(d.qubit);
        } else if (u < 2.0 * px + pz_ad) {
            state.ApplyZ(d.qubit);
        }
        if (d.dephases && rng_.Bernoulli(d.pz)) {
            state.ApplyZ(d.qubit);
        }
    };

    Counts counts(plan.num_clbits);
    StabilizerState state(plan.width);
    for (int shot = 0; shot < shots; ++shot) {
        state.Reset();
        uint64_t bits = 0;
        for (const RunPlan::Op& op : plan.ops) {
            for (int d = op.decay_begin; d < op.busy_begin; ++d) {
                decay(state, plan.decays[d]);
            }
            if (op.gate.IsMeasure()) {
                for (int d = op.busy_begin; d < op.decay_end; ++d) {
                    decay(state, plan.decays[d]);
                }
                bool outcome = state.MeasureQubit(op.gate.qubits[0], rng_);
                if (plan.readout_noise && rng_.Bernoulli(op.readout_error)) {
                    outcome = !outcome;
                }
                if (outcome) {
                    bits |= 1ull << op.gate.cbit;
                }
                continue;
            }
            state.ApplyGate(op.gate);
            if (op.error > 0.0 && rng_.Bernoulli(op.error)) {
                const int count = op.gate.qubits.size() == 1 ? 3 : 15;
                int pick = static_cast<int>(rng_.UniformInt(count)) + 1;
                for (QubitId q : op.gate.qubits) {
                    switch (pick & 3) {
                      case 1: state.ApplyX(q); break;
                      case 2: state.ApplyY(q); break;
                      case 3: state.ApplyZ(q); break;
                      default: break;
                    }
                    pick >>= 2;
                }
            }
            for (int d = op.busy_begin; d < op.decay_end; ++d) {
                decay(state, plan.decays[d]);
            }
        }
        counts.Record(bits);
    }
    return counts;
}

}  // namespace xtalk
