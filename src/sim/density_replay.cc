#include "sim/density_replay.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.h"
#include "sim/density_matrix.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

DensityReplayResult
ReplayScheduleDensity(const Device& device, const ScheduledCircuit& schedule,
                      const NoisySimOptions& options)
{
    telemetry::ScopedSpan span("sim.density_replay.run");

    // Compact the device qubits the schedule touches into a local register
    // (same mapping the trajectory engine uses).
    std::map<QubitId, int> local_of_device;
    std::vector<QubitId> device_of_local;
    for (const TimedGate& tg : schedule.gates()) {
        for (QubitId q : tg.gate.qubits) {
            if (!local_of_device.count(q)) {
                local_of_device[q] = static_cast<int>(device_of_local.size());
                device_of_local.push_back(q);
            }
        }
    }
    const int width = static_cast<int>(device_of_local.size());
    XTALK_REQUIRE(width > 0, "schedule touches no qubits");
    XTALK_REQUIRE(width <= 10, "exact density replay supports at most 10 "
                               "qubits; schedule touches "
                                   << width);

    // The per-gate error rates follow the trajectory engine's rule at
    // the same rates, so both backends model one channel strength.
    std::vector<double> gate_errors;
    if (options.gate_noise) {
        gate_errors = OverlapGateErrors(
            schedule, device,
            [&](EdgeId edge) { return device.CxError(edge); },
            [&](EdgeId victim, EdgeId aggressor) {
                return options.crosstalk
                           ? device.ConditionalCxError(victim, aggressor)
                           : device.CxError(victim);
            });
    }

    std::vector<double> t1_ns(width), tphi_ns(width), clock(width);
    for (int local = 0; local < width; ++local) {
        const QubitId q = device_of_local[local];
        t1_ns[local] = device.T1us(q) * 1000.0;
        tphi_ns[local] =
            PureDephasingTimeNs(t1_ns[local], device.T2us(q) * 1000.0);
        const double fs = schedule.FirstStartOn(q);
        clock[local] = fs < 0.0 ? 0.0 : fs;
    }

    DensityMatrix rho(width);
    auto advance_decoherence = [&](int local, double from, double to) {
        if (!options.decoherence || to <= from) {
            return;
        }
        const double dt = to - from;
        rho.ApplyAmplitudeDamping(local, 1.0 - std::exp(-dt / t1_ns[local]));
        if (tphi_ns[local] > 0.0) {
            rho.ApplyDephasing(local,
                               0.5 * (1.0 - std::exp(-dt / tphi_ns[local])));
        }
    };

    std::vector<bool> measured(width, false);
    std::vector<std::pair<int, int>> measures;  // (local qubit, cbit)
    for (int i = 0; i < schedule.size(); ++i) {
        const TimedGate& tg = schedule.gates()[i];
        if (tg.gate.IsBarrier()) {
            continue;
        }
        Gate local_gate = tg.gate;
        for (QubitId& q : local_gate.qubits) {
            q = local_of_device.at(q);
        }
        for (QubitId lq : local_gate.qubits) {
            // Collapse-free replay is exact only while measures are
            // terminal (deferred measurement principle).
            XTALK_REQUIRE(!measured[lq],
                          "density replay requires terminal measures; gate "
                              << xtalk::ToString(tg.gate)
                              << " touches an already-measured qubit");
            advance_decoherence(lq, clock[lq], tg.start_ns);
        }
        const double end_ns = tg.end_ns();
        if (local_gate.IsMeasure()) {
            const int lq = local_gate.qubits[0];
            advance_decoherence(lq, tg.start_ns, end_ns);
            if (options.readout_noise) {
                rho.ApplyReadoutFlip(
                    lq, device.ReadoutError(device_of_local[lq]));
            }
            measured[lq] = true;
            measures.push_back({lq, local_gate.cbit});
            clock[lq] = end_ns;
            continue;
        }
        rho.ApplyGate(local_gate);
        if (options.gate_noise) {
            const double error = gate_errors[i];
            if (error > 0.0) {
                rho.ApplyDepolarizing(local_gate.qubits, error);
            }
        }
        for (QubitId lq : local_gate.qubits) {
            advance_decoherence(lq, tg.start_ns, end_ns);
            clock[lq] = end_ns;
        }
    }

    // Marginalize the diagonal onto the measured classical bits exactly as
    // Counts::ToProbabilities lays out bit patterns.
    const int num_clbits = std::max(1, schedule.ToCircuit().num_clbits());
    DensityReplayResult result;
    result.width = width;
    result.trace = rho.Trace();
    result.probabilities.assign(size_t{1} << num_clbits, 0.0);
    const std::vector<double> basis_probs = rho.Probabilities();
    for (size_t basis = 0; basis < basis_probs.size(); ++basis) {
        uint64_t bits = 0;
        for (const auto& [q, c] : measures) {
            if ((basis >> q) & 1) {
                bits |= 1ull << c;
            }
        }
        result.probabilities[bits] += basis_probs[basis];
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sim.density_replay.runs").Add(1);
    }
    return result;
}

}  // namespace xtalk
