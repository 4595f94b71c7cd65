#include "scheduler/anneal_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "faults/faults.h"
#include "scheduler/analysis.h"
#include "scheduler/xtalk_problem.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

using Clock = std::chrono::steady_clock;

/** Metropolis iterations; each flips one serialization decision. */
constexpr int kIterations = 300;
/** Seed for the proposal/acceptance stream. */
constexpr uint64_t kSeed = 0xA22EA1;
/** Initial Metropolis temperature, in objective units. */
constexpr double kInitialTemperature = 0.05;
/** Geometric cooling factor applied per iteration. */
constexpr double kCooling = 0.99;
/** Poll the budget every this many iterations. */
constexpr int kBudgetPollInterval = 8;

}  // namespace

AnnealScheduler::AnnealScheduler(
    const Device& device, const CrosstalkCharacterization& characterization,
    AnnealSchedulerOptions options)
    : Scheduler(device),
      characterization_(&characterization),
      options_(options)
{
    XTALK_REQUIRE(options_.omega >= 0.0 && options_.omega <= 1.0,
                  "omega outside [0, 1]");
}

ScheduledCircuit
AnnealScheduler::Schedule(const Circuit& circuit)
{
    faults::MaybeInject("sched.anneal");
    telemetry::ScopedSpan span("sched.anneal.run");
    const auto t0 = Clock::now();
    stats_ = {};

    // Decision space: the eligible pairs XtalkSched considers encoding
    // (DAG-concurrent two-qubit gates on distinct couplers that pass the
    // high-crosstalk test in either direction), in (i, j) order.
    const std::vector<XtalkProblem::Pair> pairs =
        BuildXtalkProblem(circuit, *device_, *characterization_).eligible;
    stats_.candidate_pairs = static_cast<int>(pairs.size());

    // Serialization partners of gate j: the earlier gates it must wait
    // for when the pair's decision bit is on.
    std::vector<std::vector<std::pair<size_t, GateId>>> waits_on(
        circuit.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
        waits_on[pairs[p].j].push_back({p, pairs[p].i});
    }

    // Deterministic decisions -> schedule map: an ASAP forward pass with
    // the active serialization edges added on top of the qubit
    // dependencies. All added edges point forward in program order, so
    // one sweep suffices and the result is always a valid schedule.
    auto build = [&](const std::vector<char>& decisions) {
        ScheduledCircuit schedule(circuit.num_qubits());
        std::vector<double> ready(circuit.num_qubits(), 0.0);
        std::vector<double> end(circuit.size(), 0.0);
        std::vector<Gate> measures;
        for (GateId g = 0; g < circuit.size(); ++g) {
            const Gate& gate = circuit.gates()[g];
            if (gate.IsMeasure()) {
                measures.push_back(gate);
                continue;
            }
            double start = 0.0;
            for (QubitId q : gate.qubits) {
                start = std::max(start, ready[q]);
            }
            for (const auto& [p, earlier] : waits_on[g]) {
                if (decisions[p]) {
                    start = std::max(start, end[earlier]);
                }
            }
            const double duration =
                gate.IsBarrier() ? 0.0 : device_->GateDuration(gate);
            if (!gate.IsBarrier()) {
                schedule.Add(gate, start, duration);
            }
            end[g] = start + duration;
            for (QubitId q : gate.qubits) {
                ready[q] = std::max(ready[q], end[g]);
            }
        }
        AppendMeasures(&schedule, *device_, measures, ready);
        return schedule;
    };
    auto cost = [&](const ScheduledCircuit& schedule) {
        return EstimateScheduleError(schedule, *device_, *characterization_)
            .Objective(options_.omega);
    };
    auto expired = [&]() {
        if (options_.budget_ms == 0) {
            return false;
        }
        const double elapsed =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        return elapsed >= static_cast<double>(options_.budget_ms);
    };

    std::vector<char> decisions(pairs.size(), 0);
    std::vector<char> best_decisions = decisions;
    double current_cost = cost(build(decisions));
    double best_cost = current_cost;

    Rng rng(kSeed);
    double temperature = kInitialTemperature;
    if (!pairs.empty()) {
        for (int it = 0; it < kIterations; ++it) {
            if (it % kBudgetPollInterval == 0 && expired()) {
                stats_.cancelled = true;
                break;
            }
            const size_t flip = rng.UniformInt(pairs.size());
            decisions[flip] = !decisions[flip];
            const double proposed_cost = cost(build(decisions));
            const double delta = proposed_cost - current_cost;
            const bool accept =
                delta <= 0.0 ||
                rng.Uniform() <
                    std::exp(-delta / std::max(temperature, 1e-12));
            if (accept) {
                current_cost = proposed_cost;
                ++stats_.accepted;
                if (proposed_cost < best_cost) {
                    best_cost = proposed_cost;
                    best_decisions = decisions;
                }
            } else {
                decisions[flip] = !decisions[flip];
            }
            temperature *= kCooling;
            ++stats_.iterations_run;
        }
    }
    stats_.serialized = static_cast<int>(
        std::count(best_decisions.begin(), best_decisions.end(), 1));

    if (telemetry::Enabled()) {
        telemetry::GetCounter("sched.anneal.schedules").Add(1);
        telemetry::GetCounter("sched.anneal.iterations")
            .Add(static_cast<uint64_t>(stats_.iterations_run));
    }
    telemetry::JournalEmit(
        "sched.anneal",
        {{"pairs", stats_.candidate_pairs},
         {"iterations", stats_.iterations_run},
         {"accepted", stats_.accepted},
         {"serialized", stats_.serialized},
         {"cancelled", stats_.cancelled}});
    return build(best_decisions);
}

}  // namespace xtalk
