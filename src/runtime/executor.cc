#include "runtime/executor.h"

#include <chrono>
#include <exception>

#include "common/error.h"
#include "faults/faults.h"
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

/** Run one shot chunk on a fresh, chunk-seeded simulator. */
Counts
RunChunk(const Device& device, const ExecutionJob& job, uint64_t chunk_seed,
         int chunk_shots, bool first_chunk)
{
    // Identity-keyed fault points: decisions depend on the chunk/job
    // seed, never on thread interleaving, so injected failures are
    // reproducible at any worker count (see faults/faults.h).
    if (first_chunk && !job.fault_site.empty()) {
        faults::MaybeInject(job.fault_site.c_str(), job.seed);
    }
    faults::MaybeInject("executor.chunk", chunk_seed);
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

}  // namespace

std::vector<int>
Executor::ChunkShots(const RunSpec& spec)
{
    XTALK_REQUIRE(spec.shots > 0, "shots must be positive");
    XTALK_REQUIRE(spec.max_parallel_chunks >= 1,
                  "max_parallel_chunks must be >= 1, got "
                      << spec.max_parallel_chunks);
    const int chunks =
        std::min(spec.max_parallel_chunks,
                 (spec.shots + kMinShotsPerChunk - 1) / kMinShotsPerChunk);
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

    struct ChunkOutcome {
        Counts counts;
        double sim_ms = 0.0;
        double done_ms = 0.0;  ///< Completion time since dispatch.
        /**
         * The chunk's failure (null when it succeeded), caught and
         * classified on the worker while it still holds the exception:
         * the joining thread then holds the last reference and never
         * inspects an object another thread may be releasing.
         */
        std::exception_ptr error;
        std::string message;
        bool internal = false;  ///< The failure is an InternalError.
    };
    const Clock::time_point dispatch = Clock::now();

    // Fan out every chunk of every job, then join in deterministic
    // (job, chunk) order.
    std::vector<std::vector<int>> plans(num_jobs);
    std::vector<std::vector<std::future<ChunkOutcome>>> futures(num_jobs);
    uint64_t total_shots = 0, total_chunks = 0;
    for (size_t j = 0; j < num_jobs; ++j) {
        const ExecutionJob& job = request.jobs[j];
        plans[j] = ChunkShots(job.spec);
        const int chunks = static_cast<int>(plans[j].size());
        total_chunks += chunks;
        total_shots += static_cast<uint64_t>(job.spec.shots);
        futures[j].reserve(chunks);
        for (int c = 0; c < chunks; ++c) {
            // A one-chunk job keeps the job seed so it is bit-identical
            // to a direct serial simulator run with that seed.
            const uint64_t chunk_seed =
                chunks == 1 ? job.seed : DeriveSeed(job.seed, c);
            const int chunk_shots = plans[j][c];
            futures[j].push_back(pool_->Submit(
                [this, &job, chunk_seed, chunk_shots, dispatch, j, c] {
                    ChunkOutcome outcome;
                    try {
                        // Span, not just the histogram at join: gives
                        // the chunk its own profiler frame (under the
                        // worker's runtime.pool.job) and a trace event
                        // on the worker's named lane.
                        telemetry::ScopedSpan chunk_span(
                            "runtime.executor.chunk");
                        const Clock::time_point start = Clock::now();
                        outcome.counts = RunChunk(*device_, job, chunk_seed,
                                                  chunk_shots, c == 0);
                        outcome.sim_ms = MsSince(start);
                        outcome.done_ms = MsSince(dispatch);
                        telemetry::JournalEmit(
                            "exec.chunk",
                            {{"job", static_cast<uint64_t>(j)},
                             {"chunk", c},
                             {"shots", chunk_shots},
                             {"seed", chunk_seed},
                             {"sim_ms", outcome.sim_ms}});
                    } catch (const std::exception& e) {
                        outcome.error = std::current_exception();
                        outcome.message = e.what();
                        outcome.internal =
                            dynamic_cast<const InternalError*>(&e) !=
                            nullptr;
                    } catch (...) {
                        outcome.error = std::current_exception();
                        outcome.message = "unknown error";
                    }
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
        result.chunks = static_cast<int>(futures[j].size());
        for (auto& future : futures[j]) {
            ChunkOutcome outcome = future.get();
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
