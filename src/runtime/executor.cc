#include "runtime/executor.h"

#include <chrono>
#include <exception>
#include <optional>

#include "common/error.h"
#include "faults/faults.h"
#include "sim/exact_distribution.h"
#include "sim/stabilizer.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/** The smallest chunk a job is split into, in shots. */
constexpr int kMinShotsPerChunk = 64;

double
MsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** One chunk's histogram, timing, and failure. */
struct ChunkOutcome {
    Counts counts;
    double sim_ms = 0.0;
    double done_ms = 0.0;  ///< Completion time since dispatch.
    /**
     * The chunk's failure (null when it succeeded), caught and
     * classified on the worker while it still holds the exception: the
     * joining thread then holds the last reference and never inspects
     * an object another thread may be releasing.
     */
    std::exception_ptr error;
    std::string message;
    bool internal = false;  ///< The failure is an InternalError.
};

/**
 * Run one chunk's @p sample under its span, time and journal it, and
 * capture its failure instead of throwing.
 */
template <typename Sample>
ChunkOutcome
RunTimedChunk(size_t job, int chunk, uint64_t chunk_seed, int chunk_shots,
              Clock::time_point dispatch, Sample&& sample)
{
    ChunkOutcome outcome;
    try {
        // Span, not just the histogram at join: gives the chunk its own
        // profiler frame (under the worker's runtime.pool.job) and a
        // trace event on the worker's named lane.
        telemetry::ScopedSpan chunk_span("runtime.executor.chunk");
        const Clock::time_point start = Clock::now();
        outcome.counts = sample();
        outcome.sim_ms = MsSince(start);
        outcome.done_ms = MsSince(dispatch);
        telemetry::JournalEmit("exec.chunk",
                               {{"job", static_cast<uint64_t>(job)},
                                {"chunk", chunk},
                                {"shots", chunk_shots},
                                {"seed", chunk_seed},
                                {"sim_ms", outcome.sim_ms}});
    } catch (const std::exception& e) {
        outcome.error = std::current_exception();
        outcome.message = e.what();
        outcome.internal = dynamic_cast<const InternalError*>(&e) != nullptr;
    } catch (...) {
        outcome.error = std::current_exception();
        outcome.message = "unknown error";
    }
    return outcome;
}

/**
 * A chunk's fault points. Identity-keyed: decisions depend on the
 * chunk/job seed, never on thread interleaving, so injected failures
 * are reproducible at any worker count (see faults/faults.h).
 */
void
InjectChunkFaults(const ExecutionJob& job, uint64_t chunk_seed,
                  bool first_chunk)
{
    if (first_chunk && !job.fault_site.empty()) {
        faults::MaybeInject(job.fault_site.c_str(), job.seed);
    }
    faults::MaybeInject("executor.chunk", chunk_seed);
}

/** Run one shot chunk on a fresh, chunk-seeded trajectory simulator. */
Counts
RunTrajectoryChunk(const Device& device, const ExecutionJob& job,
                   uint64_t chunk_seed, int chunk_shots, bool first_chunk)
{
    InjectChunkFaults(job, chunk_seed, first_chunk);
    NoisySimOptions noise = job.noise;
    noise.seed = chunk_seed;
    const RunSpec chunk_spec{chunk_shots, std::nullopt, 1};
    if (job.backend == SimBackend::kStabilizer) {
        StabilizerSimulator sim(device, noise);
        return sim.Run(job.schedule, chunk_spec);
    }
    NoisySimulator sim(device, noise);
    return sim.Run(job.schedule, chunk_spec);
}

/** Seed of chunk @p chunk of @p chunks: a one-chunk job keeps the job
 *  seed, so it is bit-identical to a direct serial run with it. */
uint64_t
ChunkSeed(uint64_t job_seed, int chunk, int chunks)
{
    return chunks == 1 ? job_seed : DeriveSeed(job_seed, chunk);
}

/**
 * The plan of a job that takes the exact path, or nullopt when it runs
 * trajectories: it is not kExact, a measure is mid-circuit, or its
 * widest register fails the cost test. A schedule the plan rejects
 * also runs trajectories, which report the error chunk by chunk as
 * they do for kStatevector.
 */
std::optional<RunPlan>
ExactPlan(const Device& device, const ExecutionJob& job)
{
    if (job.backend != SimBackend::kExact) {
        return std::nullopt;
    }
    std::optional<RunPlan> plan;
    try {
        plan = BuildRunPlan(device, job.noise, job.schedule);
    } catch (const Error&) {
        return std::nullopt;
    }
    // The cost test: a few passes over 4^k numbers per two-qubit gate
    // beat replaying the shots while 2^k <= shots, up to k = 10
    // (bench/micro_benchmarks.cc, BM_ExactVsTrajectory).
    const std::optional<int> width = ExactRegisterWidth(*plan);
    if (width && *width <= kMaxExactRegisterQubits &&
        (int64_t{1} << *width) <= job.spec.shots) {
        return plan;
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter(width ? "sim.exact.fallbacks.cost"
                                    : "sim.exact.fallbacks.mid_circuit_measure")
            .Add(1);
    }
    return std::nullopt;
}

/**
 * Every chunk of an exact job, in chunk order: the first chunk that
 * passes its fault points computes the distribution, and each chunk
 * draws its shots from Rng(chunk seed).
 */
std::vector<ChunkOutcome>
RunExactJob(const ExecutionJob& job, const RunPlan& plan,
            const std::vector<int>& chunk_shots, size_t j,
            Clock::time_point dispatch)
{
    const int chunks = static_cast<int>(chunk_shots.size());
    std::optional<ExactDistribution> distribution;
    std::vector<ChunkOutcome> outcomes;
    outcomes.reserve(chunk_shots.size());
    for (int c = 0; c < chunks; ++c) {
        const uint64_t chunk_seed = ChunkSeed(job.seed, c, chunks);
        outcomes.push_back(RunTimedChunk(
            j, c, chunk_seed, chunk_shots[c], dispatch, [&] {
                InjectChunkFaults(job, chunk_seed, c == 0);
                if (!distribution) {
                    const Clock::time_point start = Clock::now();
                    distribution.emplace(plan);
                    telemetry::JournalEmit(
                        "exec.exact",
                        {{"job", static_cast<uint64_t>(j)},
                         {"width", distribution->width()},
                         {"registers", distribution->registers()},
                         {"support", distribution->support()},
                         {"ms", MsSince(start)}});
                }
                Rng rng(chunk_seed);
                return distribution->Sample(chunk_shots[c], rng);
            }));
    }
    return outcomes;
}

}  // namespace

std::vector<int>
Executor::ChunkShots(const RunSpec& spec)
{
    XTALK_REQUIRE(spec.shots > 0, "shots must be positive");
    XTALK_REQUIRE(spec.max_parallel_chunks >= 1,
                  "max_parallel_chunks must be >= 1, got "
                      << spec.max_parallel_chunks);
    // A rounded-up division without shots + kMinShotsPerChunk - 1,
    // which overflows for budgets near INT_MAX.
    const int chunks = std::min(
        spec.max_parallel_chunks,
        spec.shots / kMinShotsPerChunk +
            (spec.shots % kMinShotsPerChunk != 0 ? 1 : 0));
    std::vector<int> plan(chunks, spec.shots / chunks);
    for (int c = 0; c < spec.shots % chunks; ++c) {
        ++plan[c];
    }
    return plan;
}

Executor::Executor(const Device& device, ExecutorOptions options)
    : device_(&device)
{
    XTALK_REQUIRE(options.num_threads >= 0,
                  "num_threads must be >= 0, got " << options.num_threads);
    pool_ = options.num_threads == 0
                ? ThreadPool::Shared()
                : std::make_shared<ThreadPool>(options.num_threads);
}

std::vector<ExecutionResult>
Executor::Submit(const ExecutionRequest& request)
{
    telemetry::ScopedSpan span("runtime.executor.submit");
    const size_t num_jobs = request.jobs.size();
    std::vector<ExecutionResult> results(num_jobs);
    if (num_jobs == 0) {
        return results;
    }

    const Clock::time_point dispatch = Clock::now();

    // Fan out every job, then join in deterministic (job, chunk) order:
    // an exact job is one task that returns all its chunks, a
    // trajectory job one task per chunk.
    std::vector<std::vector<int>> plans(num_jobs);
    std::vector<std::vector<std::future<std::vector<ChunkOutcome>>>> futures(
        num_jobs);
    uint64_t total_shots = 0, total_chunks = 0;
    for (size_t j = 0; j < num_jobs; ++j) {
        const ExecutionJob& job = request.jobs[j];
        plans[j] = ChunkShots(job.spec);
        const int chunks = static_cast<int>(plans[j].size());
        total_chunks += chunks;
        total_shots += static_cast<uint64_t>(job.spec.shots);
        if (std::optional<RunPlan> plan = ExactPlan(*device_, job)) {
            futures[j].push_back(pool_->Submit(
                [&job, plan = std::move(*plan), chunk_shots = plans[j],
                 dispatch, j] {
                    return RunExactJob(job, plan, chunk_shots, j, dispatch);
                }));
            continue;
        }
        futures[j].reserve(chunks);
        for (int c = 0; c < chunks; ++c) {
            const uint64_t chunk_seed = ChunkSeed(job.seed, c, chunks);
            const int chunk_shots = plans[j][c];
            futures[j].push_back(pool_->Submit(
                [this, &job, chunk_seed, chunk_shots, dispatch, j, c] {
                    std::vector<ChunkOutcome> outcome;
                    outcome.push_back(RunTimedChunk(
                        j, c, chunk_seed, chunk_shots, dispatch, [&] {
                            return RunTrajectoryChunk(*device_, job,
                                                      chunk_seed,
                                                      chunk_shots, c == 0);
                        }));
                    return outcome;
                }));
        }
    }

    if (telemetry::Enabled()) {
        telemetry::GetCounter("runtime.executor.batches").Add(1);
        telemetry::GetCounter("runtime.executor.jobs").Add(num_jobs);
        telemetry::GetCounter("runtime.executor.chunks").Add(total_chunks);
        telemetry::GetCounter("runtime.executor.shots").Add(total_shots);
    }
    telemetry::JournalEmit("exec.batch",
                           {{"jobs", static_cast<uint64_t>(num_jobs)},
                            {"chunks", total_chunks},
                            {"shots", total_shots}});

    // Join everything before rethrowing so no future outlives its job
    // (the lambdas capture `request.jobs` by reference). Chunks never
    // throw into their future; a failure arrives in the outcome. In
    // capture mode failures stay per-job: the result is marked !ok and
    // the batch returns normally so the caller can retry or quarantine.
    std::exception_ptr first_error;
    std::exception_ptr internal_error;
    uint64_t failed_jobs = 0;
    for (size_t j = 0; j < num_jobs; ++j) {
        ExecutionResult& result = results[j];
        result.chunks = static_cast<int>(plans[j].size());
        for (auto& future : futures[j]) {
            for (ChunkOutcome& outcome : future.get()) {
                if (outcome.error) {
                    if (result.ok) {
                        result.ok = false;
                        result.error = std::move(outcome.message);
                        ++failed_jobs;
                    }
                    if (!internal_error && outcome.internal) {
                        internal_error = outcome.error;
                    }
                    if (!first_error) {
                        first_error = std::move(outcome.error);
                    }
                    continue;
                }
                result.counts.Merge(outcome.counts);
                result.sim_ms += outcome.sim_ms;
                result.wall_ms = std::max(result.wall_ms, outcome.done_ms);
                if (telemetry::Enabled()) {
                    telemetry::GetHistogram("runtime.executor.chunk.ms")
                        .Record(outcome.sim_ms);
                }
            }
        }
        if (result.ok) {
            telemetry::JournalEmit("exec.job",
                                   {{"job", static_cast<uint64_t>(j)},
                                    {"chunks", result.chunks},
                                    {"sim_ms", result.sim_ms},
                                    {"wall_ms", result.wall_ms}});
        } else {
            telemetry::JournalEmit("exec.job.error",
                                   {{"job", static_cast<uint64_t>(j)},
                                    {"chunks", result.chunks},
                                    {"error", result.error}});
        }
    }
    if (failed_jobs > 0 && telemetry::Enabled()) {
        telemetry::GetCounter("runtime.executor.job_failures")
            .Add(failed_jobs);
    }
    // Invariant violations are bugs, never captured data: they
    // propagate even in capture mode so no recovery layer masks them.
    if (internal_error) {
        std::rethrow_exception(internal_error);
    }
    if (first_error && !request.capture_job_errors) {
        std::rethrow_exception(first_error);
    }
    return results;
}

ExecutionResult
Executor::Run(ExecutionJob job)
{
    ExecutionRequest request;
    request.jobs.push_back(std::move(job));
    return std::move(Submit(request).front());
}

}  // namespace xtalk::runtime
