/**
 * @file
 * Tests for the parallel runtime (src/runtime): ThreadPool lifecycle and
 * exception behaviour, Executor chunk planning, and — the load-bearing
 * property — bit-identical results at any thread count, both for a
 * chunked noisy-QAOA run and for a full bin-packed characterization.
 * Also covers the counter-based Rng(DeriveSeed(seed, i)) scheme the
 * runtime's seed derivation builds on, and holds the distribution that
 * default-backend jobs sample to the density replay on the compiled
 * differential-oracle cases (sim_test covers the rest of kExact).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "characterization/characterizer.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "experiments/experiments.h"
#include "runtime/executor.h"
#include "runtime/thread_pool.h"
#include "scheduler/scheduler.h"
#include "sim/density_replay.h"
#include "sim/exact_distribution.h"
#include "sim/noisy_simulator.h"
#include "workloads/adversarial.h"
#include "workloads/qaoa.h"

namespace xtalk {
namespace {

TEST(ThreadPool, RunsSubmittedWork)
{
    runtime::ThreadPool pool(4);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.Submit([&sum, i] { sum += i; }));
    }
    for (auto& f : futures) {
        f.get();
    }
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPool, SubmitAfterShutdownThrows)
{
    runtime::ThreadPool pool(2);
    pool.Shutdown();
    EXPECT_THROW(pool.Submit([] {}), Error);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork)
{
    std::atomic<int> ran{0};
    {
        runtime::ThreadPool pool(1);
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 32; ++i) {
            futures.push_back(pool.Submit([&ran] { ++ran; }));
        }
        pool.Shutdown();
        for (auto& f : futures) {
            f.get();  // Must not block forever or throw broken_promise.
        }
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    runtime::ThreadPool pool(2);
    auto future = pool.Submit(
        []() -> int { throw std::runtime_error("worker boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
    // The pool must survive a throwing job.
    EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, EnvAndOverridePrecedence)
{
    // --threads-style override wins over everything and is restorable.
    const int before = runtime::ThreadPool::DefaultThreadCount();
    runtime::ThreadPool::SetDefaultThreadCount(3);
    EXPECT_EQ(runtime::ThreadPool::DefaultThreadCount(), 3);
    runtime::ThreadPool::SetDefaultThreadCount(0);  // Back to automatic.
    EXPECT_EQ(runtime::ThreadPool::DefaultThreadCount(), before);
    EXPECT_GE(before, 1);
}

TEST(Executor, ChunkPlanIsDeterministicAndCoversShots)
{
    // Small jobs stay in one chunk.
    RunSpec small{10, std::nullopt, 8};
    EXPECT_EQ(runtime::Executor::ChunkShots(small), std::vector<int>{10});

    // Large jobs split into at most max_parallel_chunks pieces that sum
    // to the budget and differ by at most one shot.
    RunSpec large{1000, std::nullopt, 8};
    const std::vector<int> chunks = runtime::Executor::ChunkShots(large);
    EXPECT_EQ(chunks.size(), 8u);
    EXPECT_EQ(std::accumulate(chunks.begin(), chunks.end(), 0), 1000);
    const auto [lo, hi] = std::minmax_element(chunks.begin(), chunks.end());
    EXPECT_LE(*hi - *lo, 1);

    // The 64-shot chunk minimum bounds the split even when more chunks
    // are allowed.
    RunSpec medium{130, std::nullopt, 8};
    EXPECT_EQ(runtime::Executor::ChunkShots(medium).size(), 3u);
}

TEST(Executor, ChunkPlanCoversIntMaxShots)
{
    // The largest budget --simulate and the wire accept: counting its
    // chunks must not overflow.
    const std::vector<int> chunks = runtime::Executor::ChunkShots(
        RunSpec{std::numeric_limits<int>::max(), std::nullopt, 16});
    ASSERT_EQ(chunks.size(), 16u);
    EXPECT_EQ(std::accumulate(chunks.begin(), chunks.end(), int64_t{0}),
              int64_t{2147483647});
    const auto [lo, hi] = std::minmax_element(chunks.begin(), chunks.end());
    EXPECT_LE(*hi - *lo, 1);
}

TEST(Executor, SingleChunkJobMatchesDirectSimulatorRun)
{
    // chunks == 1 must reproduce the historical serial path bit for bit:
    // the job seed is used directly, not routed through DeriveSeed.
    const Device device = MakeLinearDevice(4, 3, /*with_crosstalk=*/true);
    Circuit circuit(4);
    circuit.H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll();
    const ScheduledCircuit schedule = AsapSchedule(circuit, device);

    NoisySimOptions options;
    options.seed = 321;
    NoisySimulator sim(device, options);
    const Counts direct = sim.Run(schedule, RunSpec{500});

    runtime::Executor executor(device);
    runtime::ExecutionJob job;
    job.schedule = schedule;
    job.seed = 321;
    job.spec = RunSpec{500, std::nullopt, 1};
    job.backend = runtime::SimBackend::kStatevector;
    const runtime::ExecutionResult result = executor.Run(std::move(job));
    EXPECT_EQ(result.chunks, 1);
    EXPECT_EQ(result.counts.histogram(), direct.histogram());
}

TEST(Executor, ChunkedQaoaRunIsIdenticalAcrossThreadCounts)
{
    const Device device = MakePoughkeepsie();
    const Circuit circuit = BuildQaoaCircuit(device, {0, 1, 2, 3});
    ParallelScheduler scheduler(device);
    const ScheduledCircuit schedule = scheduler.Schedule(circuit);

    auto run_at = [&](int threads) {
        runtime::ExecutorOptions exec;
        exec.num_threads = threads;
        runtime::Executor executor(device, exec);
        runtime::ExecutionJob job;
        job.schedule = schedule;
        job.seed = 1234;
        job.spec = RunSpec{2048, std::nullopt, 8};
        return executor.Run(std::move(job));
    };
    const runtime::ExecutionResult at1 = run_at(1);
    const runtime::ExecutionResult at2 = run_at(2);
    const runtime::ExecutionResult at8 = run_at(8);
    EXPECT_GT(at1.chunks, 1);
    EXPECT_EQ(at1.counts.histogram(), at2.counts.histogram());
    EXPECT_EQ(at1.counts.histogram(), at8.counts.histogram());
    EXPECT_EQ(at1.counts.shots(), 2048);
}

TEST(Executor, ExceptionInOneJobPropagatesAfterDrain)
{
    // A stabilizer-backend job on a non-Clifford circuit throws inside a
    // worker; Submit must rethrow it to the caller.
    const Device device = MakeLinearDevice(2, 3);
    Circuit circuit(2);
    circuit.T(0).MeasureAll();
    const ScheduledCircuit schedule = AsapSchedule(circuit, device);

    runtime::Executor executor(device);
    runtime::ExecutionRequest request;
    runtime::ExecutionJob job;
    job.schedule = schedule;
    job.spec = RunSpec{16, std::nullopt, 1};
    job.backend = runtime::SimBackend::kStabilizer;
    request.jobs.push_back(std::move(job));
    EXPECT_THROW(executor.Submit(std::move(request)), Error);
}

TEST(ExactBackend, MatchesDensityReplayOnDifftestCases)
{
    // The CI oracle's twelve cases (`xtalk_difftest --seed 2020
    // --max-qubits 5 --intensity 2`): every adversarial family on every
    // paper device, seeded and compiled as RunDifferentialOracle does.
    // The distribution default-backend jobs sample must be the replay's.
    uint64_t case_index = 0;
    for (const Device& device : MakePaperDevices()) {
        const auto characterization = GroundTruthCharacterization(device);
        for (AdversarialFamily family : AllAdversarialFamilies()) {
            AdversarialOptions options;
            options.family = family;
            options.max_qubits = 5;
            options.intensity = 2;
            options.seed = DeriveSeed(2020, case_index++);
            CompilerOptions compile;
            compile.scheduler = "greedy";
            const ScheduledCircuit schedule =
                Compile(device, characterization,
                        BuildAdversarialCircuit(device, options), compile)
                    .schedule;
            const std::vector<double> exact =
                ExactDistribution(BuildRunPlan(device, {}, schedule))
                    .Probabilities();
            const std::vector<double> replay =
                ReplayScheduleDensity(device, schedule).probabilities;
            ASSERT_EQ(exact.size(), replay.size());
            for (size_t i = 0; i < exact.size(); ++i) {
                EXPECT_NEAR(exact[i], replay[i], 1e-12)
                    << ToString(family) << " x " << device.name()
                    << ", outcome " << i;
            }
        }
    }
    EXPECT_EQ(case_index, 12u);
}

/** A small scheduled circuit + device for the fault-injection tests. */
struct FaultFixture {
    Device device = MakeLinearDevice(3, 2, /*with_crosstalk=*/true);
    ScheduledCircuit schedule{3};

    FaultFixture()
    {
        Circuit circuit(3);
        circuit.H(0).CX(0, 1).CX(1, 2).MeasureAll();
        schedule = AsapSchedule(circuit, device);
    }

    runtime::ExecutionJob Job(uint64_t seed, int chunks = 1) const
    {
        runtime::ExecutionJob job;
        job.schedule = schedule;
        job.seed = seed;
        job.spec = RunSpec{128, std::nullopt, chunks};
        return job;
    }
};

TEST(ExecutorFaults, InjectedChunkFaultPropagatesAndPoolStaysUsable)
{
    const FaultFixture fx;
    runtime::Executor executor(fx.device);
    {
        // The chunk site is keyed by chunk seed; p=1 fails every chunk.
        faults::ScopedFaultPlan scoped("executor.chunk:p=1");
        runtime::ExecutionRequest request;
        request.jobs.push_back(fx.Job(11));
        request.jobs.push_back(fx.Job(22));
        EXPECT_THROW(executor.Submit(std::move(request)),
                     faults::InjectedFault);
    }
    // The failed batch must not poison the executor: the next batch on
    // the same pool runs to completion.
    runtime::ExecutionRequest request;
    request.jobs.push_back(fx.Job(33));
    const auto results = executor.Submit(std::move(request));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].counts.shots(), 128);
}

TEST(ExecutorFaults, CaptureModeRecordsPerJobErrors)
{
    const FaultFixture fx;
    // Identity-keyed probability: which jobs fail is a pure function of
    // the (plan seed, chunk seed) pair, never of scheduling order.
    faults::ScopedFaultPlan scoped("executor.chunk:p=0.5;seed=77");
    runtime::Executor executor(fx.device);
    runtime::ExecutionRequest request;
    request.capture_job_errors = true;
    for (uint64_t seed = 0; seed < 16; ++seed) {
        request.jobs.push_back(fx.Job(seed));
    }
    const auto first = executor.Submit(std::move(request));

    int failed = 0;
    for (const auto& result : first) {
        if (!result.ok) {
            ++failed;
            EXPECT_NE(result.error.find("executor.chunk"),
                      std::string::npos);
            EXPECT_EQ(result.counts.shots(), 0);
        } else {
            EXPECT_EQ(result.counts.shots(), 128);
        }
    }
    EXPECT_GT(failed, 0);
    EXPECT_LT(failed, 16);
}

TEST(ExecutorFaults, FaultDecisionsAreIdenticalAcrossThreadCounts)
{
    const FaultFixture fx;
    auto outcome_mask = [&](int threads) {
        faults::ScopedFaultPlan scoped("executor.chunk:p=0.5;seed=99");
        runtime::ExecutorOptions exec;
        exec.num_threads = threads;
        runtime::Executor executor(fx.device, exec);
        runtime::ExecutionRequest request;
        request.capture_job_errors = true;
        for (uint64_t seed = 100; seed < 116; ++seed) {
            request.jobs.push_back(fx.Job(seed));
        }
        std::vector<bool> ok;
        for (const auto& result : executor.Submit(std::move(request))) {
            ok.push_back(result.ok);
        }
        return ok;
    };
    const std::vector<bool> at1 = outcome_mask(1);
    EXPECT_EQ(at1, outcome_mask(4));
    EXPECT_EQ(at1, outcome_mask(8));
}

TEST(ExecutorFaults, RetryWithSameSeedIsBitIdenticalToFaultFreeRun)
{
    const FaultFixture fx;
    runtime::Executor executor(fx.device);
    // Reference histogram with injection off.
    runtime::ExecutionResult reference = executor.Run(fx.Job(4242, 4));

    // Same job under a per-job fault plan: first submission fails (the
    // per-identity attempt counter starts fresh), a later identical
    // submission draws independently and eventually succeeds — and when
    // it does, the counts are bit-identical to the fault-free run.
    faults::ScopedFaultPlan scoped("resilient.job:p=0.7;seed=5");
    std::optional<runtime::ExecutionResult> recovered;
    int attempts = 0;
    for (; attempts < 32 && !recovered; ++attempts) {
        runtime::ExecutionJob job = fx.Job(4242, 4);
        job.fault_site = "resilient.job";
        try {
            recovered = executor.Run(std::move(job));
        } catch (const faults::InjectedFault&) {
        }
    }
    ASSERT_TRUE(recovered.has_value()) << "p=0.7 never cleared in 32 tries";
    EXPECT_EQ(recovered->counts.histogram(),
              reference.counts.histogram());
}

TEST(ExecutorFaults, InternalFaultEscapesCaptureMode)
{
    const FaultFixture fx;
    faults::ScopedFaultPlan scoped("executor.chunk:p=1,kind=internal");
    runtime::Executor executor(fx.device);
    runtime::ExecutionRequest request;
    request.capture_job_errors = true;  // Must NOT absorb a bug.
    request.jobs.push_back(fx.Job(1));
    EXPECT_THROW(executor.Submit(std::move(request)), InternalError);
}

TEST(Determinism, BinPackedCharacterizationIdenticalAcrossThreadCounts)
{
    const Device device = MakeLinearDevice(6, 3, /*with_crosstalk=*/true);
    RbConfig config = BenchRbConfig(5);
    config.sequences_per_length = 3;
    config.shots = 96;

    auto characterize_at = [&](int threads) {
        Rng rng(17);
        const auto plan = BuildCharacterizationPlan(
            device.topology(), CharacterizationPolicy::kOneHopBinPacked,
            rng);
        runtime::ExecutorOptions exec;
        exec.num_threads = threads;
        CrosstalkCharacterizer characterizer(
            device, CharacterizerConfig{.rb = config, .exec = exec});
        return characterizer.Run(plan);
    };
    const auto at1 = characterize_at(1);
    const auto at2 = characterize_at(2);
    const auto at8 = characterize_at(8);
    ASSERT_FALSE(at1.conditional_entries().empty());
    EXPECT_EQ(at1.conditional_entries(), at2.conditional_entries());
    EXPECT_EQ(at1.conditional_entries(), at8.conditional_entries());
    EXPECT_EQ(at1.independent_entries(), at2.independent_entries());
    EXPECT_EQ(at1.independent_entries(), at8.independent_entries());
}

TEST(RngForkAt, IndependentOfParentConsumption)
{
    // Child 3 of seed 42 depends on (seed, index) alone: deriving it
    // again gives the same stream, and that stream is not the parent's.
    Rng parent(42);
    Rng child(DeriveSeed(42, 3));
    Rng again(DeriveSeed(42, 3));
    for (int i = 0; i < 16; ++i) {
        const uint64_t draw = child.Next();
        EXPECT_EQ(draw, again.Next());
        EXPECT_NE(draw, parent.Next());
    }
}

TEST(RngForkAt, DistinctIndicesGiveDistinctSeeds)
{
    EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
    EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
    // Deterministic: same (base, index) always maps to the same seed.
    EXPECT_EQ(DeriveSeed(99, 7), DeriveSeed(99, 7));
}

TEST(RngForkAt, SiblingStreamsAreStatisticallyIndependent)
{
    // Pairwise Pearson correlation between sibling streams must be
    // consistent with independence (|r| ~ O(1/sqrt(N))).
    constexpr int kStreams = 6;
    constexpr int kSamples = 4096;
    std::vector<std::vector<double>> streams;
    for (int s = 0; s < kStreams; ++s) {
        Rng child(DeriveSeed(2024, static_cast<uint64_t>(s)));
        std::vector<double> samples(kSamples);
        for (double& x : samples) {
            x = child.Uniform();
        }
        streams.push_back(std::move(samples));
    }
    for (int a = 0; a < kStreams; ++a) {
        for (int b = a + 1; b < kStreams; ++b) {
            double mean_a = 0.0;
            double mean_b = 0.0;
            for (int i = 0; i < kSamples; ++i) {
                mean_a += streams[a][i];
                mean_b += streams[b][i];
            }
            mean_a /= kSamples;
            mean_b /= kSamples;
            double cov = 0.0;
            double var_a = 0.0;
            double var_b = 0.0;
            for (int i = 0; i < kSamples; ++i) {
                const double da = streams[a][i] - mean_a;
                const double db = streams[b][i] - mean_b;
                cov += da * db;
                var_a += da * da;
                var_b += db * db;
            }
            const double r = cov / std::sqrt(var_a * var_b);
            EXPECT_LT(std::abs(r), 0.05)
                << "streams " << a << " and " << b << " correlate";
        }
    }
}

}  // namespace
}  // namespace xtalk
