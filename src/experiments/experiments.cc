#include "experiments/experiments.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "metrics/cross_entropy.h"
#include "metrics/readout_mitigation.h"
#include "metrics/tomography.h"

namespace xtalk {

RbConfig
BenchRbConfig(uint64_t seed)
{
    RbConfig config;
    config.lengths = {1, 2, 4, 7, 12, 20, 30};
    config.sequences_per_length = 4;
    config.shots = 128;
    config.seed = seed;
    return config;
}

CrosstalkCharacterization
CharacterizeDevice(const Device& device, const RbConfig& config,
                   CharacterizationPolicy policy, uint64_t seed,
                   runtime::ExecutorOptions exec_options)
{
    Rng rng(seed);
    CrosstalkCharacterizer characterizer(
        device, CharacterizerConfig{.rb = config, .exec = exec_options});
    if (policy == CharacterizationPolicy::kHighOnly) {
        // Periodic full scan discovers the stable high-crosstalk set;
        // the daily fast path then re-measures only those pairs.
        const auto full_plan = BuildCharacterizationPlan(
            device.topology(), CharacterizationPolicy::kOneHopBinPacked,
            rng);
        const auto full = characterizer.Run(full_plan);
        const auto high = full.HighCrosstalkPairs(3.0);
        if (high.empty()) {
            return full;
        }
        const auto daily_plan = BuildCharacterizationPlan(
            device.topology(), CharacterizationPolicy::kHighOnly, rng, high);
        CrosstalkCharacterization merged = full;
        merged.Merge(characterizer.Run(daily_plan));
        return merged;
    }
    const auto plan =
        BuildCharacterizationPlan(device.topology(), policy, rng);
    return characterizer.Run(plan);
}

std::vector<double>
MeasuredQubitFlips(const Device& device, const Circuit& circuit)
{
    std::vector<double> flips(std::max(1, circuit.num_clbits()), 0.0);
    for (const Gate& g : circuit.gates()) {
        if (g.IsMeasure()) {
            flips.at(g.cbit) = device.ReadoutError(g.qubits[0]);
        }
    }
    return flips;
}

SwapExperimentResult
RunSwapExperiment(const Device& device, Scheduler& scheduler,
                  const SwapBenchmark& benchmark, int shots_per_setting,
                  uint64_t sim_seed, bool mitigate_readout)
{
    SwapExperimentResult result;
    const std::vector<Circuit> tomo = TomographyCircuits(
        benchmark.circuit, benchmark.bell_left, benchmark.bell_right);

    // All nine tomography settings execute as one batch; seeds draw
    // from the seeder in setting order, exactly as the serial loop did.
    Rng seeder(sim_seed);
    runtime::ExecutionRequest request;
    for (const Circuit& circuit : tomo) {
        runtime::ExecutionJob job;
        job.schedule = scheduler.Schedule(circuit);
        result.duration_ns =
            std::max(result.duration_ns, job.schedule.TotalDuration());
        job.seed = seeder.Next();
        job.spec = RunSpec{shots_per_setting, std::nullopt, 1};
        request.jobs.push_back(std::move(job));
    }
    runtime::Executor executor(device);
    const std::vector<runtime::ExecutionResult> executed =
        executor.Submit(request);

    std::vector<std::vector<double>> distributions;
    for (const runtime::ExecutionResult& r : executed) {
        if (mitigate_readout) {
            const ReadoutMitigator mitigator(
                {device.ReadoutError(benchmark.bell_left),
                 device.ReadoutError(benchmark.bell_right)});
            distributions.push_back(mitigator.Mitigate(r.counts));
        } else {
            distributions.push_back(r.counts.ToProbabilities());
        }
    }
    const Matrix rho =
        ReconstructDensityMatrixFromDistributions(distributions);
    result.error_rate = std::clamp(1.0 - BellFidelity(rho), 0.0, 1.0);
    return result;
}

namespace {

/**
 * Shared fan-out for the batched sweep drivers: schedule every job
 * serially, execute all of them as one batch, return (schedule
 * duration, counts) per job in job order.
 */
struct ExecutedPoint {
    double duration_ns = 0.0;
    Counts counts;
};

std::vector<ExecutedPoint>
ExecuteSweep(const Device& device, const std::vector<ExperimentJob>& jobs,
             const runtime::ExecutorOptions& exec_options,
             std::vector<ScheduledCircuit>* schedules = nullptr)
{
    runtime::ExecutionRequest request;
    std::vector<double> durations;
    for (const ExperimentJob& job : jobs) {
        XTALK_REQUIRE(job.scheduler != nullptr && job.circuit != nullptr,
                      "ExperimentJob needs a scheduler and a circuit");
        runtime::ExecutionJob exec_job;
        exec_job.schedule = job.scheduler->Schedule(*job.circuit);
        durations.push_back(exec_job.schedule.TotalDuration());
        if (schedules != nullptr) {
            schedules->push_back(exec_job.schedule);
        }
        exec_job.seed = job.sim_seed;
        exec_job.spec = RunSpec{job.shots, std::nullopt, 1};
        request.jobs.push_back(std::move(exec_job));
    }
    runtime::Executor executor(device, exec_options);
    const std::vector<runtime::ExecutionResult> executed =
        executor.Submit(request);

    std::vector<ExecutedPoint> out(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        out[i].duration_ns = durations[i];
        out[i].counts = executed[i].counts;
    }
    return out;
}

}  // namespace

std::vector<QaoaExperimentResult>
RunCrossEntropyExperiments(const Device& device,
                           const std::vector<ExperimentJob>& jobs,
                           runtime::ExecutorOptions exec_options)
{
    std::vector<ScheduledCircuit> schedules;
    const std::vector<ExecutedPoint> executed =
        ExecuteSweep(device, jobs, exec_options, &schedules);

    std::vector<QaoaExperimentResult> results(jobs.size());
    NoisySimulator reference(device);
    for (size_t i = 0; i < jobs.size(); ++i) {
        QaoaExperimentResult& result = results[i];
        result.duration_ns = executed[i].duration_ns;
        const std::vector<double> ideal =
            reference.IdealProbabilities(schedules[i]);
        std::vector<double> measured;
        if (jobs[i].mitigate_readout) {
            const ReadoutMitigator mitigator(
                MeasuredQubitFlips(device, *jobs[i].circuit));
            measured = mitigator.Mitigate(executed[i].counts);
        } else {
            measured = executed[i].counts.ToProbabilities();
        }
        result.cross_entropy = CrossEntropy(measured, ideal);
        result.ideal_cross_entropy = IdealCrossEntropy(ideal);
    }
    return results;
}

std::vector<HiddenShiftExperimentResult>
RunHiddenShiftExperiments(const Device& device,
                          const std::vector<ExperimentJob>& jobs,
                          runtime::ExecutorOptions exec_options)
{
    const std::vector<ExecutedPoint> executed =
        ExecuteSweep(device, jobs, exec_options);

    std::vector<HiddenShiftExperimentResult> results(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        HiddenShiftExperimentResult& result = results[i];
        result.duration_ns = executed[i].duration_ns;
        double success;
        if (jobs[i].mitigate_readout) {
            const ReadoutMitigator mitigator(
                MeasuredQubitFlips(device, *jobs[i].circuit));
            success =
                mitigator.Mitigate(executed[i].counts)
                    .at(jobs[i].expected_outcome);
        } else {
            success =
                executed[i].counts.Probability(jobs[i].expected_outcome);
        }
        result.error_rate = std::clamp(1.0 - success, 0.0, 1.0);
    }
    return results;
}

QaoaExperimentResult
RunCrossEntropyExperiment(const Device& device, Scheduler& scheduler,
                          const Circuit& circuit, int shots,
                          uint64_t sim_seed, bool mitigate_readout)
{
    ExperimentJob job;
    job.scheduler = &scheduler;
    job.circuit = &circuit;
    job.shots = shots;
    job.sim_seed = sim_seed;
    job.mitigate_readout = mitigate_readout;
    return RunCrossEntropyExperiments(device, {job}).front();
}

HiddenShiftExperimentResult
RunHiddenShiftExperiment(const Device& device, Scheduler& scheduler,
                         const Circuit& circuit, uint64_t expected_outcome,
                         int shots, uint64_t sim_seed, bool mitigate_readout)
{
    ExperimentJob job;
    job.scheduler = &scheduler;
    job.circuit = &circuit;
    job.shots = shots;
    job.sim_seed = sim_seed;
    job.mitigate_readout = mitigate_readout;
    job.expected_outcome = expected_outcome;
    return RunHiddenShiftExperiments(device, {job}).front();
}

}  // namespace xtalk
