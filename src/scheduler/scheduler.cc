#include "scheduler/scheduler.h"

#include <algorithm>

#include "common/error.h"

namespace xtalk {

namespace {

/** Split a circuit into (non-measure gates, measure gates). */
void
SplitMeasures(const Circuit& circuit, std::vector<Gate>* body,
              std::vector<Gate>* measures)
{
    for (const Gate& g : circuit.gates()) {
        if (g.IsMeasure()) {
            measures->push_back(g);
        } else {
            body->push_back(g);
        }
    }
}

}  // namespace

void
AppendMeasures(ScheduledCircuit* schedule, const Device& device,
               const std::vector<Gate>& measures,
               const std::vector<double>& qubit_ready)
{
    if (measures.empty()) {
        return;
    }
    if (device.traits().simultaneous_readout) {
        double start = 0.0;
        for (const Gate& m : measures) {
            start = std::max(start, qubit_ready[m.qubits[0]]);
        }
        for (const Gate& m : measures) {
            schedule->Add(m, start, device.ReadoutDuration(m.qubits[0]));
        }
    } else {
        for (const Gate& m : measures) {
            schedule->Add(m, qubit_ready[m.qubits[0]],
                          device.ReadoutDuration(m.qubits[0]));
        }
    }
}

ScheduledCircuit
AsapSchedule(const Circuit& circuit, const Device& device)
{
    std::vector<Gate> body, measures;
    SplitMeasures(circuit, &body, &measures);

    ScheduledCircuit schedule(circuit.num_qubits());
    std::vector<double> ready(circuit.num_qubits(), 0.0);
    for (const Gate& g : body) {
        double start = 0.0;
        for (QubitId q : g.qubits) {
            start = std::max(start, ready[q]);
        }
        const double duration = device.GateDuration(g);
        if (!g.IsBarrier()) {
            schedule.Add(g, start, duration);
        }
        for (QubitId q : g.qubits) {
            ready[q] = start + duration;
        }
    }
    AppendMeasures(&schedule, device, measures, ready);
    return schedule;
}

ScheduledCircuit
SerialScheduler::Schedule(const Circuit& circuit)
{
    std::vector<Gate> body, measures;
    SplitMeasures(circuit, &body, &measures);

    ScheduledCircuit schedule(circuit.num_qubits());
    double clock = 0.0;
    for (const Gate& g : body) {
        const double duration = device_->GateDuration(g);
        if (!g.IsBarrier()) {
            schedule.Add(g, clock, duration);
        }
        clock += duration;
    }
    std::vector<double> ready(circuit.num_qubits(), clock);
    AppendMeasures(&schedule, *device_, measures, ready);
    return schedule;
}

ScheduledCircuit
ParallelScheduler::Schedule(const Circuit& circuit)
{
    std::vector<Gate> body, measures;
    SplitMeasures(circuit, &body, &measures);

    // Backward (ALAP) pass: compute each gate's distance-from-the-end,
    // then mirror so everything is as late as possible; barriers act as
    // zero-duration synchronization points.
    std::vector<double> back(circuit.num_qubits(), 0.0);
    std::vector<double> back_start(body.size(), 0.0);
    for (int i = static_cast<int>(body.size()) - 1; i >= 0; --i) {
        const Gate& g = body[i];
        double finish = 0.0;
        for (QubitId q : g.qubits) {
            finish = std::max(finish, back[q]);
        }
        const double duration = device_->GateDuration(g);
        back_start[i] = finish + duration;
        for (QubitId q : g.qubits) {
            back[q] = back_start[i];
        }
    }
    const double makespan =
        back.empty() ? 0.0 : *std::max_element(back.begin(), back.end());

    ScheduledCircuit schedule(circuit.num_qubits());
    for (size_t i = 0; i < body.size(); ++i) {
        if (!body[i].IsBarrier()) {
            schedule.Add(body[i], makespan - back_start[i],
                         device_->GateDuration(body[i]));
        }
    }
    std::vector<double> ready(circuit.num_qubits(), makespan);
    AppendMeasures(&schedule, *device_, measures, ready);
    return schedule;
}

}  // namespace xtalk
