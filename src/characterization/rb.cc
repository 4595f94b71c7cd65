#include "characterization/rb.h"

#include <algorithm>

#include "clifford/group.h"
#include "clifford/tableau.h"
#include "common/error.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

long long
RbConfig::TotalExecutions() const
{
    return static_cast<long long>(lengths.size()) * sequences_per_length *
           shots;
}

RbRunner::RbRunner(const Device& device, RbConfig config,
                   runtime::ExecutorOptions exec_options)
    : device_(&device),
      config_(std::move(config)),
      executor_(device, exec_options),
      rng_(config_.seed)
{
    XTALK_REQUIRE(config_.lengths.size() >= 3,
                  "RB needs at least 3 sequence lengths to fit the decay");
    XTALK_REQUIRE(config_.sequences_per_length > 0 && config_.shots > 0,
                  "RB needs positive sequence and shot counts");
}

namespace {

/** Expand logical SWAPs (from Clifford synthesis) into 3 CNOTs. */
void
AppendLoweringSwaps(Circuit* target, const Circuit& source,
                    const std::vector<QubitId>& qubit_map)
{
    for (Gate g : source.gates()) {
        for (QubitId& q : g.qubits) {
            q = qubit_map[q];
        }
        if (g.kind == GateKind::kSwap) {
            target->CX(g.qubits[0], g.qubits[1]);
            target->CX(g.qubits[1], g.qubits[0]);
            target->CX(g.qubits[0], g.qubits[1]);
        } else {
            target->Add(std::move(g));
        }
    }
}

}  // namespace

std::vector<size_t>
RbRunner::DrawCliffords(const std::vector<EdgeId>& edges, int num_cliffords,
                        Rng& rng) const
{
    XTALK_REQUIRE(!edges.empty(), "SRB needs at least one coupler");
    XTALK_REQUIRE(num_cliffords >= 1, "sequence length must be >= 1");
    const Topology& topo = device_->topology();
    for (size_t i = 0; i < edges.size(); ++i) {
        for (size_t j = i + 1; j < edges.size(); ++j) {
            XTALK_REQUIRE(
                !topo.edge(edges[i]).SharesQubit(topo.edge(edges[j])),
                "SRB couplers must be disjoint");
        }
    }
    const CliffordGroup& group = CliffordGroup::Shared(2);
    std::vector<size_t> cliffords(edges.size() * num_cliffords);
    for (size_t& index : cliffords) {
        index = group.Sample(rng);
    }
    return cliffords;
}

ScheduledCircuit
RbRunner::BuildSchedule(const std::vector<EdgeId>& edges,
                        const std::vector<size_t>& cliffords,
                        bool interleave) const
{
    const Topology& topo = device_->topology();
    const CliffordGroup& group = CliffordGroup::Shared(2);
    const size_t num_cliffords = cliffords.size() / edges.size();
    Circuit circuit(device_->num_qubits());
    for (size_t pair_index = 0; pair_index < edges.size(); ++pair_index) {
        const Edge& e = topo.edge(edges[pair_index]);
        const std::vector<QubitId> map{e.a, e.b};
        Tableau accumulated(2);
        for (size_t k = 0; k < num_cliffords; ++k) {
            const Circuit& element =
                group.circuit(cliffords[pair_index * num_cliffords + k]);
            AppendLoweringSwaps(&circuit, element, map);
            for (const Gate& g : element.gates()) {
                accumulated.ApplyGate(g);
            }
            if (interleave) {
                circuit.CX(e.a, e.b);
                accumulated.ApplyCX(0, 1);
            }
        }
        AppendLoweringSwaps(&circuit, accumulated.SynthesizeInverse(), map);
    }

    // ASAP schedule; gates within a pair serialize naturally (they share
    // qubits), gates on different pairs overlap freely.
    ScheduledCircuit schedule(device_->num_qubits());
    std::vector<double> ready(device_->num_qubits(), 0.0);
    for (const Gate& g : circuit.gates()) {
        double start = 0.0;
        for (QubitId q : g.qubits) {
            start = std::max(start, ready[q]);
        }
        const double duration = device_->GateDuration(g);
        schedule.Add(g, start, duration);
        for (QubitId q : g.qubits) {
            ready[q] = start + duration;
        }
    }

    // Simultaneous readout (IBMQ trait): all measures at the same time.
    double readout_start = 0.0;
    for (size_t pair_index = 0; pair_index < edges.size(); ++pair_index) {
        const Edge& e = topo.edge(edges[pair_index]);
        readout_start = std::max({readout_start, ready[e.a], ready[e.b]});
    }
    for (size_t pair_index = 0; pair_index < edges.size(); ++pair_index) {
        const Edge& e = topo.edge(edges[pair_index]);
        const ClbitId base = static_cast<ClbitId>(2 * pair_index);
        schedule.Add(Gate{GateKind::kMeasure, {e.a}, {}, base},
                     readout_start, device_->ReadoutDuration(e.a));
        schedule.Add(Gate{GateKind::kMeasure, {e.b}, {}, base + 1},
                     readout_start, device_->ReadoutDuration(e.b));
    }
    return schedule;
}

ScheduledCircuit
RbRunner::BuildSrbSchedule(const std::vector<EdgeId>& edges,
                           int num_cliffords, Rng& rng,
                           bool interleave) const
{
    return BuildSchedule(edges, DrawCliffords(edges, num_cliffords, rng),
                         interleave);
}

SrbExperiment
RbRunner::DrawSimultaneous(const std::vector<EdgeId>& edges,
                           bool interleave)
{
    if (telemetry::Enabled()) {
        const uint64_t sequences =
            config_.lengths.size() *
            static_cast<uint64_t>(config_.sequences_per_length);
        telemetry::GetCounter("charz.srb.experiments").Add(1);
        telemetry::GetCounter("charz.srb.couplers")
            .Add(static_cast<uint64_t>(edges.size()));
        telemetry::GetCounter("charz.srb.sequences").Add(sequences);
        telemetry::GetCounter("charz.srb.shots")
            .Add(sequences * static_cast<uint64_t>(config_.shots));
    }

    SrbExperiment experiment;
    experiment.edges = edges;
    experiment.interleave = interleave;
    experiment.sequences.reserve(config_.lengths.size() *
                                 config_.sequences_per_length);
    for (const int length : config_.lengths) {
        for (int s = 0; s < config_.sequences_per_length; ++s) {
            SrbExperiment::Sequence sequence;
            sequence.cliffords = DrawCliffords(edges, length, rng_);
            sequence.seed = rng_.Next();
            experiment.sequences.push_back(std::move(sequence));
        }
    }
    return experiment;
}

std::vector<runtime::ExecutionJob>
RbRunner::BuildJobs(const SrbExperiment& experiment) const
{
    std::vector<runtime::ExecutionJob> jobs;
    jobs.reserve(experiment.sequences.size());
    for (const SrbExperiment::Sequence& sequence : experiment.sequences) {
        runtime::ExecutionJob job;
        job.schedule = BuildSchedule(experiment.edges, sequence.cliffords,
                                     experiment.interleave);
        job.seed = sequence.seed;
        job.spec = RunSpec{config_.shots, std::nullopt, 1};
        job.backend = config_.use_stabilizer_backend
                          ? runtime::SimBackend::kStabilizer
                          : runtime::SimBackend::kStatevector;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<RbResult>
RbRunner::ReduceSimultaneous(
    const SrbExperiment& experiment,
    std::span<const runtime::ExecutionResult> results) const
{
    const std::vector<EdgeId>& edges = experiment.edges;
    const size_t expected_jobs =
        config_.lengths.size() *
        static_cast<size_t>(config_.sequences_per_length);
    XTALK_REQUIRE(results.size() == expected_jobs,
                  "expected " << expected_jobs << " job results, got "
                              << results.size());

    // survival[pair][length index] accumulated over sequences.
    std::vector<std::vector<double>> survival(
        edges.size(), std::vector<double>(config_.lengths.size(), 0.0));
    size_t job_index = 0;
    for (size_t li = 0; li < config_.lengths.size(); ++li) {
        for (int s = 0; s < config_.sequences_per_length; ++s) {
            const Counts& counts = results[job_index++].counts;
            for (size_t pair_index = 0; pair_index < edges.size();
                 ++pair_index) {
                // Survival = both of this pair's bits read 0.
                const uint64_t mask = 0b11ull << (2 * pair_index);
                int surviving = 0;
                for (const auto& [bits, count] : counts.histogram()) {
                    if ((bits & mask) == 0) {
                        surviving += count;
                    }
                }
                survival[pair_index][li] +=
                    static_cast<double>(surviving) / config_.shots;
            }
        }
    }

    std::vector<RbResult> out;
    for (size_t pair_index = 0; pair_index < edges.size(); ++pair_index) {
        RbResult result;
        result.edge = edges[pair_index];
        for (size_t li = 0; li < config_.lengths.size(); ++li) {
            result.lengths.push_back(config_.lengths[li]);
            result.survival.push_back(survival[pair_index][li] /
                                      config_.sequences_per_length);
        }
        result.fit = FitExponentialDecay(result.lengths, result.survival);
        if (result.fit.ok) {
            result.error_per_clifford =
                ErrorPerCliffordFromDecay(result.fit.p, 2);
            // A uniform two-qubit Clifford averages 1.5 CNOTs.
            result.cnot_error = result.error_per_clifford / 1.5;
            result.ok = true;
        }
        out.push_back(std::move(result));
    }
    return out;
}

std::vector<RbResult>
RbRunner::MeasureSimultaneous(const std::vector<EdgeId>& edges,
                              bool interleave)
{
    telemetry::ScopedSpan span("charz.srb.measure");
    const SrbExperiment experiment = DrawSimultaneous(edges, interleave);
    runtime::ExecutionRequest request;
    request.jobs = BuildJobs(experiment);
    return ReduceSimultaneous(experiment, executor_.Submit(request));
}

RbResult
RbRunner::MeasureIndependent(EdgeId edge)
{
    return MeasureSimultaneous({edge}).front();
}

InterleavedRbResult
RbRunner::MeasureInterleaved(EdgeId edge)
{
    InterleavedRbResult result;
    result.standard = MeasureSimultaneous({edge}, false).front();
    result.interleaved = MeasureSimultaneous({edge}, true).front();
    if (result.standard.ok && result.interleaved.ok &&
        result.standard.fit.p > 1e-6) {
        const double ratio =
            std::clamp(result.interleaved.fit.p / result.standard.fit.p,
                       0.0, 1.0);
        result.gate_error = 0.75 * (1.0 - ratio);  // d = 4 for two qubits.
        result.ok = true;
    }
    return result;
}

}  // namespace xtalk
