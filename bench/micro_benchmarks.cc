/**
 * @file
 * google-benchmark microbenchmarks for the performance-critical library
 * components: state-vector gate application, noisy trajectory shots
 * against exact outcome distributions, Clifford tableau operations and
 * synthesis, SRB schedule construction, bin packing, the SMT
 * scheduler itself, and a warm compile's fixed costs (QASM parse and
 * emit, noise-aware layout, the schedule score).
 */
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "characterization/binpack.h"
#include "characterization/rb.h"
#include "circuit/qasm.h"
#include "circuit/qasm_parser.h"
#include "compiler/compiler.h"
#include "experiments/experiments.h"
#include "runtime/executor.h"
#include "scheduler/portfolio.h"
#include "clifford/group.h"
#include "clifford/tableau.h"
#include "device/ibmq_devices.h"
#include "scheduler/analysis.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"
#include "service/api.h"
#include "service/engine.h"
#include "sim/counts.h"
#include "sim/exact_distribution.h"
#include "sim/gate_matrices.h"
#include "sim/noisy_simulator.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"
#include "telemetry/journal.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"
#include "transpile/layout.h"
#include "workloads/qaoa.h"
#include "workloads/swap_circuits.h"

namespace xtalk {
namespace {

void
BM_StateVector1QGate(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    StateVector sv(n);
    const Matrix h = MatH();
    int q = 0;
    for (auto _ : state) {
        sv.Apply1Q(q, h);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(state.iterations() << n);
}
BENCHMARK(BM_StateVector1QGate)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_StateVector2QGate(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    StateVector sv(n);
    const Matrix cx = MatCX();
    int q = 0;
    for (auto _ : state) {
        sv.Apply2Q(q, (q + 1) % n, cx);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(state.iterations() << n);
}
BENCHMARK(BM_StateVector2QGate)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_NoisyTrajectoryShot(benchmark::State& state)
{
    const Device device = MakePoughkeepsie();
    const SwapBenchmark bench = BuildSwapBenchmark(device, 0, 13);
    Circuit circuit = bench.circuit;
    circuit.Measure(bench.bell_left, 0).Measure(bench.bell_right, 1);
    ParallelScheduler scheduler(device);
    const ScheduledCircuit schedule = scheduler.Schedule(circuit);
    NoisySimulator sim(device);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.Run(schedule, RunSpec{1}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NoisyTrajectoryShot);

void
BM_StabilizerShotVsStatevector(benchmark::State& state)
{
    // The same noisy SRB-style schedule on both backends (arg 0 =
    // statevector, arg 1 = stabilizer) — the speedup that lets benches
    // afford higher RB budgets.
    const Device device = MakePoughkeepsie();
    RbRunner runner(device, RbConfig{});
    Rng rng(5);
    const EdgeId e1 = device.topology().FindEdge(0, 1);
    const EdgeId e2 = device.topology().FindEdge(2, 3);
    const ScheduledCircuit schedule =
        runner.BuildSrbSchedule({e1, e2}, 16, rng);
    NoisySimOptions options;
    options.seed = 9;
    if (state.range(0) == 0) {
        NoisySimulator sim(device, options);
        for (auto _ : state) {
            benchmark::DoNotOptimize(sim.Run(schedule, RunSpec{8}));
        }
    } else {
        StabilizerSimulator sim(device, options);
        for (auto _ : state) {
            benchmark::DoNotOptimize(sim.Run(schedule, RunSpec{8}));
        }
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_StabilizerShotVsStatevector)->Arg(0)->Arg(1);

void
BM_ExecutorBatch(benchmark::State& state)
{
    // 16 SRB-style jobs x 32 shots as one Executor batch; the arg is the
    // worker count (1 = serial baseline). Counts are identical across
    // args — only wall time changes.
    const Device device = MakePoughkeepsie();
    RbRunner runner(device, RbConfig{});
    Rng rng(5);
    const EdgeId e1 = device.topology().FindEdge(0, 1);
    const EdgeId e2 = device.topology().FindEdge(2, 3);
    const ScheduledCircuit schedule =
        runner.BuildSrbSchedule({e1, e2}, 12, rng);
    runtime::ExecutorOptions exec;
    exec.num_threads = static_cast<int>(state.range(0));
    runtime::Executor executor(device, exec);
    for (auto _ : state) {
        runtime::ExecutionRequest request;
        for (int j = 0; j < 16; ++j) {
            runtime::ExecutionJob job;
            job.schedule = schedule;
            job.seed = DeriveSeed(11, j);
            job.spec = RunSpec{32, std::nullopt, 1};
            request.jobs.push_back(std::move(job));
        }
        benchmark::DoNotOptimize(executor.Submit(request));
    }
    state.SetItemsProcessed(state.iterations() * 16 * 32);
}
BENCHMARK(BM_ExecutorBatch)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ExactVsTrajectory(benchmark::State& state)
{
    // One register of k qubits (a QAOA chain, ParSched) at a shot
    // budget, run as trajectories (engine 0) or as the exact
    // distribution plus sampling (engine 1). Exact costs grow 4^k and
    // stay flat in shots; trajectories grow with shots. The table is
    // what sets the executor's cost test (2^k <= shots, k <= 10).
    const int k = static_cast<int>(state.range(0));
    const int shots = static_cast<int>(state.range(1));
    const bool exact = state.range(2) == 1;
    const Device device = MakePoughkeepsie();
    const std::vector<QubitId> path{0, 1, 2, 3, 4, 9, 8, 7, 6, 5};
    const ScheduledCircuit schedule = ParallelScheduler(device).Schedule(
        BuildQaoaCircuit(device, std::vector<QubitId>(path.begin(),
                                                      path.begin() + k)));
    uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng(seed);
        if (exact) {
            const ExactDistribution distribution(
                BuildRunPlan(device, {}, schedule));
            benchmark::DoNotOptimize(distribution.Sample(shots, rng));
        } else {
            NoisySimulator sim(device);
            benchmark::DoNotOptimize(
                sim.Run(schedule, RunSpec{shots, seed}));
        }
        ++seed;
    }
    state.SetItemsProcessed(state.iterations() * shots);
}
BENCHMARK(BM_ExactVsTrajectory)
    ->ArgNames({"k", "shots", "exact"})
    ->ArgsProduct({{2, 4, 6, 8, 10}, {16, 128, 1024, 8192}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void
BM_ExactSample(benchmark::State& state)
{
    // One 512-shot chunk drawn from the exact distribution of a 6-qubit
    // QAOA chain (ParSched): the request path's sampler and its Counts,
    // the evolution done once outside the loop.
    const Device device = MakePoughkeepsie();
    const ScheduledCircuit schedule = ParallelScheduler(device).Schedule(
        BuildQaoaCircuit(device, {0, 1, 2, 3, 4, 9}));
    const ExactDistribution distribution(BuildRunPlan(device, {}, schedule));
    uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng(seed++);
        benchmark::DoNotOptimize(distribution.Sample(512, rng));
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ExactSample);

/** Counts of @p shots draws over @p outcomes distinct seeded outcomes
 *  of a 20-bit register. */
std::vector<uint64_t>
SeededOutcomes(uint64_t seed, int outcomes, int shots)
{
    Rng rng(seed);
    std::vector<uint64_t> support(static_cast<size_t>(outcomes));
    for (uint64_t& bits : support) {
        bits = rng.UniformInt(uint64_t{1} << 20);
    }
    std::vector<uint64_t> draws(static_cast<size_t>(shots));
    for (uint64_t& bits : draws) {
        bits = support[rng.UniformInt(support.size())];
    }
    return draws;
}

void
BM_CountsMerge(benchmark::State& state)
{
    // A 16-chunk job's merge: 16 chunk histograms of 64 outcomes each
    // (512 shots apiece) added into one.
    std::vector<Counts> chunks;
    const std::vector<uint64_t> draws = SeededOutcomes(5, 64, 16 * 512);
    for (int c = 0; c < 16; ++c) {
        Counts chunk(20);
        for (int shot = 0; shot < 512; ++shot) {
            chunk.Record(draws[static_cast<size_t>(c * 512 + shot)]);
        }
        chunks.push_back(std::move(chunk));
    }
    for (auto _ : state) {
        Counts merged;
        for (const Counts& chunk : chunks) {
            merged.Merge(chunk);
        }
        benchmark::DoNotOptimize(merged);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_CountsMerge);

void
BM_CountsRecordWide(benchmark::State& state)
{
    // 8,192 shots over 4,096 distinct outcomes, recorded per shot the
    // way the trajectory and stabilizer engines do (one batch, sorted
    // once), so the cost stays O(n log n) however many are distinct.
    const std::vector<uint64_t> draws = SeededOutcomes(9, 4096, 8192);
    std::vector<uint64_t> shots;
    for (auto _ : state) {
        shots = draws;
        Counts counts(20);
        counts.RecordShots(shots);
        benchmark::DoNotOptimize(counts);
    }
    state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_CountsRecordWide);

void
BM_TableauCxApply(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    Tableau t(n);
    int q = 0;
    for (auto _ : state) {
        t.ApplyCX(q, (q + 1) % n);
        q = (q + 1) % n;
    }
}
BENCHMARK(BM_TableauCxApply)->Arg(2)->Arg(8)->Arg(32);

void
BM_TableauSynthesizeInverse(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(3);
    Tableau t(n);
    for (int i = 0; i < 50; ++i) {
        const int q = static_cast<int>(rng.UniformInt(n));
        const int r = static_cast<int>(rng.UniformInt(n));
        switch (rng.UniformInt(3)) {
          case 0: t.ApplyH(q); break;
          case 1: t.ApplyS(q); break;
          default:
            if (q != r) {
                t.ApplyCX(q, r);
            }
            break;
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.SynthesizeInverse());
    }
}
BENCHMARK(BM_TableauSynthesizeInverse)->Arg(2)->Arg(4)->Arg(8);

void
BM_TwoQubitCliffordSample(benchmark::State& state)
{
    const CliffordGroup& group = CliffordGroup::Shared(2);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(group.circuit(group.Sample(rng)));
    }
}
BENCHMARK(BM_TwoQubitCliffordSample);

void
BM_SrbScheduleConstruction(benchmark::State& state)
{
    const Device device = MakePoughkeepsie();
    RbRunner runner(device, RbConfig{});
    Rng rng(5);
    const EdgeId e1 = device.topology().FindEdge(0, 1);
    const EdgeId e2 = device.topology().FindEdge(2, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runner.BuildSrbSchedule({e1, e2}, 16, rng));
    }
}
BENCHMARK(BM_SrbScheduleConstruction);

void
BM_RandomizedFirstFitPack(benchmark::State& state)
{
    const Device device = MakePoughkeepsie();
    const auto pairs = device.topology().EdgePairsAtDistance(1);
    Rng rng(9);
    for (auto _ : state) {
        auto copy = pairs;
        benchmark::DoNotOptimize(RandomizedFirstFitPack(
            device.topology(), std::move(copy), 2, 10, rng));
    }
}
BENCHMARK(BM_RandomizedFirstFitPack);

void
BM_XtalkSchedulerSwapPath(benchmark::State& state)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const SwapBenchmark bench = BuildSwapBenchmark(device, 15, 12);
    Circuit circuit = bench.circuit;
    circuit.Measure(bench.bell_left, 0).Measure(bench.bell_right, 1);
    XtalkScheduler scheduler(device, characterization);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduler.Schedule(circuit));
    }
}
BENCHMARK(BM_XtalkSchedulerSwapPath)->Unit(benchmark::kMillisecond);

/**
 * A four-ω sweep over one circuit in one incremental Z3 session with
 * push/pop objective scopes — the auto member's path. CI diffs it
 * against the committed baseline so the sweep's solve time stays
 * visible in the bench artifacts without being asserted.
 */
void
BM_XtalkOmegaSweep(benchmark::State& state)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const SwapBenchmark bench = BuildSwapBenchmark(device, 15, 12);
    Circuit circuit = bench.circuit;
    circuit.Measure(bench.bell_left, 0).Measure(bench.bell_right, 1);
    const std::vector<double> omegas = {0.1, 0.35, 0.5, 0.75};
    for (auto _ : state) {
        XtalkScheduler scheduler(device, characterization);
        benchmark::DoNotOptimize(
            scheduler.ScheduleForOmegas(circuit, omegas));
    }
}
BENCHMARK(BM_XtalkOmegaSweep)->Unit(benchmark::kMillisecond);

/** The full race on the paper's Figure 6 workload: every member runs
 *  concurrently on the shared pool and the best candidate is kept. */
void
BM_SchedulerPortfolio(benchmark::State& state)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const SwapBenchmark bench = BuildSwapBenchmark(device, 15, 12);
    Circuit circuit = bench.circuit;
    circuit.Measure(bench.bell_left, 0).Measure(bench.bell_right, 1);
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    const std::vector<std::string> keys = {"xtalk", "anneal", "greedy",
                                           "parallel", "serial"};
    for (auto _ : state) {
        std::vector<std::unique_ptr<PortfolioMember>> members;
        for (const std::string& key : keys) {
            members.push_back(MakePortfolioMember(key));
        }
        SchedulerPortfolio portfolio(std::move(members));
        benchmark::DoNotOptimize(portfolio.Run(circuit, ctx));
    }
}
BENCHMARK(BM_SchedulerPortfolio)->Unit(benchmark::kMillisecond);

void
BM_JournalEmitDisabled(benchmark::State& state)
{
    // The advertised cost of an instrumented call site when the journal
    // is off: one relaxed atomic load, arguments never materialised.
    telemetry::SetJournalEnabled(false);
    uint64_t i = 0;
    for (auto _ : state) {
        telemetry::JournalEmit("bench.noop", {{"i", i++}});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalEmitDisabled);

void
BM_JournalEmitEnabled(benchmark::State& state)
{
    // Enabled cost for comparison: shard lock plus typed field copies.
    // The bounded buffer means long runs settle into the drop path.
    telemetry::SetJournalEnabled(true);
    telemetry::Journal::Global().Clear();
    uint64_t i = 0;
    for (auto _ : state) {
        telemetry::JournalEmit("bench.noop", {{"i", i++}});
    }
    state.SetItemsProcessed(state.iterations());
    telemetry::SetJournalEnabled(false);
    telemetry::Journal::Global().Clear();
}
BENCHMARK(BM_JournalEmitEnabled);

void
BM_ProfilerDisabled(benchmark::State& state)
{
    // The advertised cost of a ScopedSpan call site with profiling (and
    // the metric subsystem) off: a handful of relaxed atomic loads, no
    // frame-stack work.
    telemetry::SetProfilingEnabled(false);
    telemetry::SetEnabled(false);
    for (auto _ : state) {
        telemetry::ScopedSpan span("bench.noop");
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerDisabled);

void
BM_ProfilerEnabled(benchmark::State& state)
{
    // Enabled cost for comparison: two clock reads, an uncontended
    // per-thread mutex, and a map lookup on enter plus the histogram
    // record on exit. Spans are coarse, so this stays off hot paths.
    telemetry::SetProfilingEnabled(true);
    telemetry::ResetProfile();
    for (auto _ : state) {
        telemetry::ScopedSpan span("bench.noop");
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
    telemetry::SetProfilingEnabled(false);
    telemetry::SetEnabled(false);
    telemetry::ResetProfile();
}
BENCHMARK(BM_ProfilerEnabled);

/**
 * The per-job overhead ThreadPool::Enqueue adds when a request trace is
 * active: capture the submitter's thread-local context, then install /
 * restore it in the worker via ScopedTraceContext. This is on the hot
 * path of every pooled job inside a traced request, so it has to stay
 * in the tens-of-nanoseconds range.
 */
void
BM_TraceContextPropagation(benchmark::State& state)
{
    telemetry::TraceContext request;
    request.trace_hi = 0x0123456789abcdefull;
    request.trace_lo = 0xfedcba9876543210ull;
    request.span = 0x1122334455667788ull;
    telemetry::ScopedTraceContext active(request);
    for (auto _ : state) {
        const telemetry::TraceContext captured =
            telemetry::CurrentTraceContext();
        if (captured.valid()) {
            telemetry::ScopedTraceContext scope(captured);
            benchmark::DoNotOptimize(
                telemetry::CurrentTraceContext().trace_lo);
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceContextPropagation);

/** A 6-qubit, 2-layer QAOA circuit on logical qubits 0..5: the size of
 *  the service benchmark's warm compile requests. */
Circuit
WarmSizedQaoa()
{
    QaoaOptions options;
    options.layers = 2;
    return BuildQaoaCircuit(MakeLinearDevice(6), {0, 1, 2, 3, 4, 5},
                            options);
}

/** QASM in, as every service request arrives. */
void
BM_ParseQasm(benchmark::State& state)
{
    const std::string qasm = ToQasm(WarmSizedQaoa());
    for (auto _ : state) {
        benchmark::DoNotOptimize(ParseQasm(qasm));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(qasm.size()));
}
BENCHMARK(BM_ParseQasm);

/** QASM out, as every compile response carries it. */
void
BM_ToQasm(benchmark::State& state)
{
    const Circuit circuit = WarmSizedQaoa();
    for (auto _ : state) {
        benchmark::DoNotOptimize(ToQasm(circuit));
    }
}
BENCHMARK(BM_ToQasm);

/** Poughkeepsie, on which the service benchmark's requests compile. */
const Device&
Poughkeepsie()
{
    static const Device device = MakePoughkeepsie();
    return device;
}

/** The service's seed-1 snapshot of Poughkeepsie, characterized once. */
const CrosstalkCharacterization&
SeedOneSnapshot()
{
    static const CrosstalkCharacterization snapshot = CharacterizeDevice(
        Poughkeepsie(), BenchRbConfig(),
        CharacterizationPolicy::kOneHopBinPacked, 1);
    return snapshot;
}

/** Noise-aware placement of the warm-sized QAOA chain on Poughkeepsie,
 *  with the crosstalk penalty of the service's seed-1 snapshot. */
void
BM_NoiseAwareLayout(benchmark::State& state)
{
    const Circuit logical = WarmSizedQaoa();
    for (auto _ : state) {
        benchmark::DoNotOptimize(NoiseAwareLayout(
            Poughkeepsie(), logical, &SeedOneSnapshot(), 0.5));
    }
}
BENCHMARK(BM_NoiseAwareLayout);

/**
 * The schedule score the portfolio race, the estimate pass and
 * AnnealSched compute, against the seed-1 snapshot: arg 0 scores the
 * warm-sized QAOA chain as a warm compile schedules it, arg 1 a
 * two-coupler SRB sequence of 30 Cliffords.
 */
void
BM_EstimateScheduleError(benchmark::State& state)
{
    const Device& device = Poughkeepsie();
    const CrosstalkCharacterization& snapshot = SeedOneSnapshot();
    ScheduledCircuit schedule(device.num_qubits());
    if (state.range(0) == 0) {
        schedule = Compile(device, snapshot, WarmSizedQaoa()).schedule;
    } else {
        RbRunner runner(device, RbConfig{});
        Rng rng(5);
        schedule = runner.BuildSrbSchedule(
            {device.topology().FindEdge(0, 1),
             device.topology().FindEdge(2, 3)},
            30, rng);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            EstimateScheduleError(schedule, device, snapshot));
    }
    state.SetItemsProcessed(state.iterations() * schedule.size());
}
BENCHMARK(BM_EstimateScheduleError)->Arg(0)->Arg(1);

/** What the service benchmark's daemon workload sends: the warm-sized
 *  QAOA chain, the parallel scheduler and the trivial layout. */
service::ServiceRequest
DaemonShapedRequest()
{
    service::ServiceRequest request;
    request.id = "daemon_parallel-0";
    request.qasm = ToQasm(WarmSizedQaoa());
    request.scheduler = "parallel";
    request.layout = "trivial";
    return request;
}

/** The response line xtalkd writes for a daemon-shaped request. */
void
BM_WireEncode(benchmark::State& state)
{
    service::Engine engine;
    const service::ServiceResponse response =
        engine.Handle(DaemonShapedRequest());
    size_t bytes = 0;
    for (auto _ : state) {
        const std::string line = response.ToJson();
        bytes += line.size();
        benchmark::DoNotOptimize(line.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WireEncode);

/** The request line xtalkd reads, parsed and typed. */
void
BM_WireDecode(benchmark::State& state)
{
    const std::string line = DaemonShapedRequest().ToJson();
    for (auto _ : state) {
        service::ServiceRequest request;
        std::string error;
        benchmark::DoNotOptimize(
            service::ServiceRequest::FromJson(line, &request, &error));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_WireDecode);

/**
 * A repeated lookup of one metric by name, as each instrumented site
 * makes on every request. Threads find it in the registry's shared
 * index without a lock, so four cost about what one does.
 */
void
BM_MetricLookup(benchmark::State& state)
{
    const std::string name = "svc.request_ms";
    for (auto _ : state) {
        benchmark::DoNotOptimize(&telemetry::GetHistogram(name));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricLookup)->Threads(1)->Threads(4);

void
BM_ParSchedSwapPath(benchmark::State& state)
{
    const Device device = MakePoughkeepsie();
    const SwapBenchmark bench = BuildSwapBenchmark(device, 0, 13);
    Circuit circuit = bench.circuit;
    circuit.Measure(bench.bell_left, 0).Measure(bench.bell_right, 1);
    ParallelScheduler scheduler(device);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduler.Schedule(circuit));
    }
}
BENCHMARK(BM_ParSchedSwapPath);

}  // namespace
}  // namespace xtalk

/**
 * Expanded BENCHMARK_MAIN(): when XTALK_BENCH_JSON=<dir> is set (and no
 * explicit --benchmark_out was passed), also write google-benchmark's
 * JSON report to <dir>/micro_benchmarks.json, matching the table dumps
 * the fig*_ binaries produce via bench_util.h.
 */
int
main(int argc, char** argv)
{
    std::vector<char*> args(argv, argv + argc);
    std::string out_flag;
    std::string format_flag;
    const char* json_dir = std::getenv("XTALK_BENCH_JSON");
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
            has_out = true;
        }
    }
    if (json_dir && *json_dir && !has_out) {
        out_flag = std::string("--benchmark_out=") + json_dir +
                   "/micro_benchmarks.json";
        format_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(format_flag.data());
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
