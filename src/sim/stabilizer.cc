#include "sim/stabilizer.h"

#include <cmath>
#include <vector>

#include "clifford/tableau.h"
#include "common/error.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

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

    auto decay = [&](Tableau& state, const RunPlan::Decay& d) {
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

    std::vector<uint64_t> outcomes(static_cast<size_t>(shots));
    Tableau state(plan.width);
    for (uint64_t& bits : outcomes) {
        state.Reset();
        bits = 0;
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
    }
    Counts counts(plan.num_clbits);
    counts.RecordShots(outcomes);
    return counts;
}

}  // namespace xtalk
