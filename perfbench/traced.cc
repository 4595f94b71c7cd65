#include "traced.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "circuit/qasm.h"
#include "circuit/qasm_parser.h"
#include "compiler/compiler.h"
#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "daemon.h"
#include "device/ibmq_devices.h"
#include "experiments/experiments.h"
#include "runtime/executor.h"

namespace perfbench {

namespace {

using xtalk::service::ServiceRequest;
using xtalk::service::ServiceResponse;

/** The default pipeline's passes, in order, with their span names. */
constexpr std::pair<const char*, const char*> kPasses[] = {
    {"layout", "transpile.layout"},
    {"route", "transpile.route"},
    {"schedule", "scheduler.schedule"},
    {"lower-barriers", "compiler.lower"},
    {"estimate", "compiler.estimate"},
};

/** The engine's on-the-fly characterization seed (EngineOptions). */
constexpr uint64_t kCharacterizationSeed = 1;

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

xtalk::CompilerOptions
CompilerOptionsFor(const ServiceRequest& request)
{
    xtalk::CompilerOptions options;
    if (!xtalk::ParseLayoutPolicy(request.layout, &options.layout) ||
        !xtalk::ParseSchedulerPolicy(request.scheduler, &options.scheduler)) {
        throw std::runtime_error("unknown layout or scheduler");
    }
    options.xtalk.omega = request.omega;
    options.portfolio = request.schedulers;
    options.verify_passes = request.verify_passes;
    return options;
}

void
Append(std::vector<double>* to, const std::vector<double>& from)
{
    to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

/** One client thread's spans, kept in memory until the run ends. */
class TracedReplay::Recorder {
  public:
    /** RAII span: opens on construction, closes on destruction. */
    class Scope {
      public:
        Scope(Recorder& recorder, const char* name, uint64_t request)
            : recorder_(recorder)
        {
            Span span;
            span.name = name;
            span.request = request;
            span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
            recorder.open_.push_back(static_cast<int>(recorder.spans.size()));
            span.start_ns = NowNs();
            recorder.spans.push_back(span);
        }
        ~Scope()
        {
            recorder_.spans[static_cast<size_t>(recorder_.open_.back())]
                .end_ns = NowNs();
            recorder_.open_.pop_back();
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Recorder& recorder_;
    };

    std::vector<Span> spans;

  private:
    std::vector<int> open_;
};

TracedReplay::TracedReplay(const Workload& workload,
                           const std::vector<PoolRequest>& pool,
                           const std::vector<Reference>& references)
    : workload_(workload), pool_(pool), references_(references)
{
}

TracedReplay::~TracedReplay() = default;

void
TracedReplay::Setup()
{
    if (workload_.fresh_engine) {
        return;  // Every replayed request characterizes afresh instead.
    }
    const xtalk::Device device = xtalk::MakePoughkeepsie();
    if (pool_.front().request.NeedsCharacterization()) {
        // The engine's warm snapshot: CharacterizeDevice's calls, timed.
        xtalk::Rng rng(kCharacterizationSeed);
        auto start = Clock::now();
        const xtalk::CharacterizationPlan plan =
            xtalk::BuildCharacterizationPlan(
                device.topology(),
                xtalk::CharacterizationPolicy::kOneHopBinPacked, rng);
        setup_.charz_plan_ms.push_back(MsSince(start));
        xtalk::CrosstalkCharacterizer characterizer(
            device, xtalk::CharacterizerConfig{.rb = xtalk::BenchRbConfig()});
        const double cpu0 = SelfCpuSeconds();
        start = Clock::now();
        snapshot_ = std::make_unique<xtalk::CrosstalkCharacterization>(
            characterizer.Run(plan));
        setup_.charz_run_ms.push_back(MsSince(start));
        setup_.charz_cpu_s.push_back(SelfCpuSeconds() - cpu0);
        setup_.charz_experiments.push_back(plan.NumExperiments());
    }
    // The schedule pass alone, one circuit at a time: its gap to the
    // loaded schedule time is the wait for the shared pool.
    const xtalk::CrosstalkCharacterization empty;
    for (const PoolRequest& entry : pool_) {
        xtalk::CompilationState state(
            device, snapshot_ ? *snapshot_ : empty,
            xtalk::ParseQasm(entry.request.qasm),
            CompilerOptionsFor(entry.request));
        xtalk::CreateRegisteredPass("layout")->Run(state);
        xtalk::CreateRegisteredPass("route")->Run(state);
        auto schedule = xtalk::CreateRegisteredPass("schedule");
        const auto start = Clock::now();
        schedule->Run(state);
        setup_.solo_schedule_ms.push_back(MsSince(start));
    }
}

void
TracedReplay::ReplayOne(size_t index, uint64_t request_id,
                        Recorder& recorder, TracedResult* out) const
{
    using Scope = Recorder::Scope;
    const PoolRequest& entry = pool_[index];
    Scope root(recorder, "service.request", request_id);

    ServiceRequest request;
    {
        Scope span(recorder, "service.wire_decode", request_id);
        std::string error;
        if (!ServiceRequest::FromJson(entry.wire, &request, &error)) {
            throw std::runtime_error("request does not decode: " + error);
        }
    }
    std::optional<xtalk::Circuit> circuit;
    {
        Scope span(recorder, "circuit.parse", request_id);
        circuit = xtalk::ParseQasm(request.qasm);
    }
    const xtalk::Device device = xtalk::MakePoughkeepsie();

    const xtalk::CrosstalkCharacterization empty;
    std::optional<xtalk::CrosstalkCharacterization> fresh;
    const xtalk::CrosstalkCharacterization* characterization =
        snapshot_ ? snapshot_.get() : &empty;
    if (workload_.fresh_engine && request.NeedsCharacterization()) {
        Scope span(recorder, "characterization", request_id);
        xtalk::Rng rng(kCharacterizationSeed);
        auto start = Clock::now();
        xtalk::CharacterizationPlan plan;
        {
            Scope plan_span(recorder, "characterization.plan", request_id);
            plan = xtalk::BuildCharacterizationPlan(
                device.topology(),
                xtalk::CharacterizationPolicy::kOneHopBinPacked, rng);
        }
        out->charz_plan_ms.push_back(MsSince(start));
        xtalk::CrosstalkCharacterizer characterizer(
            device, xtalk::CharacterizerConfig{.rb = xtalk::BenchRbConfig()});
        const double cpu0 = SelfCpuSeconds();
        start = Clock::now();
        {
            Scope run_span(recorder, "characterization.run", request_id);
            fresh = characterizer.Run(plan);
        }
        out->charz_run_ms.push_back(MsSince(start));
        out->charz_cpu_s.push_back(SelfCpuSeconds() - cpu0);
        out->charz_experiments.push_back(plan.NumExperiments());
        characterization = &*fresh;
    }

    xtalk::CompilationState state(device, *characterization, *circuit,
                                  CompilerOptionsFor(request));
    for (const auto& [pass_name, span_name] : kPasses) {
        std::unique_ptr<xtalk::Pass> pass =
            xtalk::CreateRegisteredPass(pass_name);
        Scope span(recorder, span_name, request_id);
        pass->Run(state);
    }
    out->gates_in.push_back(circuit->size());
    out->swaps_added.push_back(
        (state.routed->size() - state.logical.size()) / 3.0);
    out->degraded.push_back(state.degradation != "none" ? 1.0 : 0.0);

    ServiceResponse response;
    response.id = request.id;
    response.scheduler_name = state.scheduler_name;
    response.degradation = state.degradation;
    response.degradation_reason = state.degradation_reason;
    response.omega = state.omega;
    response.diagnostics = state.diagnostics;
    response.initial_layout.assign(state.initial_layout.begin(),
                                   state.initial_layout.end());
    response.final_layout.assign(state.final_layout.begin(),
                                 state.final_layout.end());
    response.duration_ns = state.schedule->TotalDuration();
    response.has_estimate = state.estimate.has_value();
    if (state.estimate) {
        response.success_probability = state.estimate->success_probability;
        response.crosstalk_overlaps = state.estimate->crosstalk_overlaps;
    }
    if (request.simulate_shots > 0) {
        xtalk::runtime::Executor executor(device);
        xtalk::runtime::ExecutionJob job;
        job.schedule = *state.schedule;
        // The engine's fixed chunk bound (see Engine::RunCompile).
        job.spec = xtalk::RunSpec{request.simulate_shots, std::nullopt, 16};
        const auto start = Clock::now();
        std::optional<xtalk::runtime::ExecutionResult> result;
        {
            Scope span(recorder, "runtime.run", request_id);
            result = executor.Run(std::move(job));
        }
        const double wall_ms = MsSince(start);
        out->chunks.push_back(result->chunks);
        out->parallel_efficiency.push_back(
            result->sim_ms / (wall_ms * executor.num_threads()));
        out->us_per_shot.push_back(result->sim_ms * 1000.0 /
                                   request.simulate_shots);
        response.counts = result->counts.ToString();
    }
    {
        Scope span(recorder, "circuit.emit", request_id);
        response.qasm = xtalk::ToQasm(state.executable
                                          ? *state.executable
                                          : state.schedule->ToCircuit());
    }
    {
        Scope span(recorder, "service.wire_encode", request_id);
        const std::string line = response.ToJson();
        (void)line;
    }

    const Reference& reference = references_[index];
    if (!reference.set) {
        out->problems.push_back(request.id + ": no untraced reference");
    } else if (response.qasm != reference.qasm) {
        out->problems.push_back(request.id +
                                ": replayed QASM differs from the engine's");
    } else if (response.counts != reference.counts) {
        out->problems.push_back(request.id +
                                ": replayed counts differ from the engine's");
    }
}

TracedResult
TracedReplay::Run(double seconds)
{
    TracedResult merged = setup_;
    std::mutex merge_mutex;
    std::atomic<uint64_t> next{0};
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    recorders_.clear();
    for (int c = 0; c < workload_.clients; ++c) {
        recorders_.push_back(std::make_unique<Recorder>());
    }
    auto client = [&](Recorder& recorder) {
        TracedResult local;
        while (Clock::now() < end) {
            const uint64_t id = next.fetch_add(1);
            ++local.attempted;
            try {
                ReplayOne(static_cast<size_t>(id % pool_.size()), id + 1,
                          recorder, &local);
            } catch (const std::exception& e) {
                ++local.failed;
                local.problems.push_back(std::string("replay failed: ") +
                                         e.what());
            }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        merged.attempted += local.attempted;
        merged.failed += local.failed;
        Append(&merged.gates_in, local.gates_in);
        Append(&merged.swaps_added, local.swaps_added);
        Append(&merged.degraded, local.degraded);
        Append(&merged.chunks, local.chunks);
        Append(&merged.parallel_efficiency, local.parallel_efficiency);
        Append(&merged.us_per_shot, local.us_per_shot);
        Append(&merged.charz_plan_ms, local.charz_plan_ms);
        Append(&merged.charz_run_ms, local.charz_run_ms);
        Append(&merged.charz_cpu_s, local.charz_cpu_s);
        Append(&merged.charz_experiments, local.charz_experiments);
        merged.problems.insert(merged.problems.end(), local.problems.begin(),
                               local.problems.end());
    };
    std::vector<std::thread> threads;
    for (auto& recorder : recorders_) {
        threads.emplace_back(client, std::ref(*recorder));
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    for (const auto& recorder : recorders_) {
        const std::vector<Span>& spans = recorder->spans;
        std::vector<double> child_ms(spans.size(), 0.0);
        for (const Span& span : spans) {
            if (span.parent >= 0) {
                child_ms[static_cast<size_t>(span.parent)] +=
                    (span.end_ns - span.start_ns) * 1e-6;
            }
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            const double ms = (spans[i].end_ns - spans[i].start_ns) * 1e-6;
            merged.total_ms[spans[i].name].push_back(ms);
            merged.self_ms[spans[i].name].push_back(ms - child_ms[i]);
            if (spans[i].parent < 0) {
                merged.request_ms.push_back(ms);
            }
        }
    }
    return merged;
}

bool
TracedReplay::WriteSpans(const std::string& path) const
{
    // The first requests only: a fast workload records about a million
    // spans, and the aggregates above already cover all of them.
    constexpr uint64_t kWrittenRequests = 5000;
    std::ofstream out(path);
    for (size_t t = 0; t < recorders_.size(); ++t) {
        const std::vector<Span>& spans = recorders_[t]->spans;
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span& span = spans[i];
            if (span.request > kWrittenRequests) {
                continue;
            }
            out << "{\"thread\":" << t << ",\"span\":" << i
                << ",\"parent\":" << span.parent
                << ",\"request\":" << span.request << ",\"name\":\""
                << span.name << "\",\"start_ns\":" << span.start_ns
                << ",\"end_ns\":" << span.end_ns << "}\n";
        }
    }
    return static_cast<bool>(out);
}

}  // namespace perfbench
