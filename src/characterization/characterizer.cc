#include "characterization/characterizer.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <future>
#include <iterator>
#include <span>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "common/retry.h"
#include "telemetry/journal.h"
#include "telemetry/ledger.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

std::string
PolicyName(CharacterizationPolicy policy)
{
    switch (policy) {
      case CharacterizationPolicy::kAllPairs:
        return "all-pairs";
      case CharacterizationPolicy::kOneHop:
        return "one-hop (Opt 1)";
      case CharacterizationPolicy::kOneHopBinPacked:
        return "one-hop + bin packing (Opt 2)";
      case CharacterizationPolicy::kHighOnly:
        return "high-crosstalk only (Opt 3)";
    }
    XTALK_ASSERT(false, "unknown policy");
}

int
CharacterizationPlan::NumExperiments() const
{
    int n = 0;
    for (const ExperimentBin& bin : batches) {
        n += static_cast<int>(bin.size());
    }
    return n;
}

namespace {

/** Minimum hop separation between pairs packed into one bin. */
constexpr int kSeparationHops = 2;
/** Restarts of the randomized first-fit packing. */
constexpr int kPackingIterations = 20;

}  // namespace

CharacterizationPlan
BuildCharacterizationPlan(const Topology& topology,
                          CharacterizationPolicy policy, Rng& rng,
                          const std::vector<GatePair>& known_high_pairs)
{
    CharacterizationPlan plan;
    plan.policy = policy;
    switch (policy) {
      case CharacterizationPolicy::kAllPairs: {
        for (const GatePair& pair : topology.SimultaneousEdgePairs()) {
            plan.batches.push_back({pair});  // One experiment at a time.
        }
        break;
      }
      case CharacterizationPolicy::kOneHop: {
        for (const GatePair& pair : topology.EdgePairsAtDistance(1)) {
            plan.batches.push_back({pair});
        }
        break;
      }
      case CharacterizationPolicy::kOneHopBinPacked: {
        plan.batches = RandomizedFirstFitPack(
            topology, topology.EdgePairsAtDistance(1), kSeparationHops,
            kPackingIterations, rng);
        break;
      }
      case CharacterizationPolicy::kHighOnly: {
        XTALK_REQUIRE(!known_high_pairs.empty(),
                      "kHighOnly needs the previously discovered "
                      "high-crosstalk pair set");
        plan.batches = RandomizedFirstFitPack(topology, known_high_pairs,
                                              kSeparationHops,
                                              kPackingIterations, rng);
        break;
      }
    }
    return plan;
}

void
CrosstalkCharacterization::SetIndependentError(EdgeId edge, double error)
{
    XTALK_REQUIRE(error >= 0.0 && error <= 1.0, "bad error rate " << error);
    independent_[edge] = error;
}

void
CrosstalkCharacterization::SetConditionalError(EdgeId victim,
                                               EdgeId aggressor, double error)
{
    XTALK_REQUIRE(error >= 0.0 && error <= 1.0, "bad error rate " << error);
    conditional_[{victim, aggressor}] = error;
}

bool
CrosstalkCharacterization::HasIndependentError(EdgeId edge) const
{
    return independent_.count(edge) > 0;
}

double
CrosstalkCharacterization::IndependentError(EdgeId edge) const
{
    const auto it = independent_.find(edge);
    XTALK_REQUIRE(it != independent_.end(),
                  "no independent error measured for edge " << edge);
    return it->second;
}

double
CrosstalkCharacterization::IndependentOrCalibratedError(
    EdgeId edge, const Device& device) const
{
    const auto it = independent_.find(edge);
    return it != independent_.end() ? it->second : device.CxError(edge);
}

bool
CrosstalkCharacterization::HasConditionalError(EdgeId victim,
                                               EdgeId aggressor) const
{
    return conditional_.count({victim, aggressor}) > 0;
}

double
CrosstalkCharacterization::ConditionalError(EdgeId victim,
                                            EdgeId aggressor) const
{
    const auto it = conditional_.find({victim, aggressor});
    if (it != conditional_.end()) {
        return it->second;
    }
    return IndependentError(victim);
}

std::vector<GatePair>
CrosstalkCharacterization::HighCrosstalkPairs(double threshold) const
{
    std::set<GatePair> unordered;
    for (const auto& [pair, conditional] : conditional_) {
        if (!HasIndependentError(pair.first)) {
            continue;
        }
        if (conditional > threshold * IndependentError(pair.first)) {
            const auto key = std::minmax(pair.first, pair.second);
            unordered.insert({key.first, key.second});
        }
    }
    return {unordered.begin(), unordered.end()};
}

bool
CrosstalkCharacterization::IsHighCrosstalk(
    EdgeId victim, EdgeId aggressor,
    const HighCrosstalkCriteria& criteria) const
{
    if (!HasConditionalError(victim, aggressor) ||
        !HasIndependentError(victim)) {
        return false;
    }
    const double independent = IndependentError(victim);
    const double conditional = ConditionalError(victim, aggressor);
    return conditional >= criteria.threshold * independent &&
           conditional - independent >= criteria.margin;
}

void
CrosstalkCharacterization::Merge(const CrosstalkCharacterization& other)
{
    for (const auto& [edge, error] : other.independent_) {
        independent_[edge] = error;
    }
    for (const auto& [pair, error] : other.conditional_) {
        conditional_[pair] = error;
    }
}

std::string
CrosstalkCharacterization::SnapshotId() const
{
    // std::map iterates in key order, so the serialization — and the
    // hash — is independent of insertion history.
    std::ostringstream canon;
    canon.precision(17);
    for (const auto& [edge, error] : independent_) {
        canon << "i " << edge << " " << error << "\n";
    }
    for (const auto& [pair, error] : conditional_) {
        canon << "c " << pair.first << " " << pair.second << " " << error
              << "\n";
    }
    return telemetry::FnvHex(canon.str());
}

CrosstalkCharacterization
GroundTruthCharacterization(const Device& device)
{
    CrosstalkCharacterization c;
    for (EdgeId e = 0; e < device.topology().num_edges(); ++e) {
        c.SetIndependentError(e, device.CxError(e));
    }
    for (const auto& entry : device.ground_truth().entries()) {
        const auto& [victim, aggressor] = entry.first;
        c.SetConditionalError(victim, aggressor,
                              device.ConditionalCxError(victim, aggressor));
    }
    return c;
}

CrosstalkCharacterizer::CrosstalkCharacterizer(const Device& device,
                                               CharacterizerConfig config)
    : device_(&device), config_(std::move(config))
{
}

namespace {

/** Fault-injection site tag carried by every characterization job. */
constexpr const char* kSrbRunSite = "srb.run";

/**
 * Build the jobs of every experiment on @p pool, one task per
 * experiment, tag them with kSrbRunSite, and concatenate them in
 * experiment order. Each task catches its own failure; the first one is
 * rethrown only after every task has joined, since the tasks read
 * @p experiments.
 */
std::vector<runtime::ExecutionJob>
BuildJobsOnPool(const RbRunner& runner, runtime::ThreadPool& pool,
                const std::vector<SrbExperiment>& experiments)
{
    struct Built {
        std::vector<runtime::ExecutionJob> jobs;
        std::exception_ptr error;
    };
    std::vector<std::future<Built>> builds;
    builds.reserve(experiments.size());
    for (const SrbExperiment& experiment : experiments) {
        builds.push_back(pool.Submit([&runner, &experiment] {
            Built built;
            try {
                telemetry::ScopedSpan span("charz.build");
                built.jobs = runner.BuildJobs(experiment);
                for (runtime::ExecutionJob& job : built.jobs) {
                    job.fault_site = kSrbRunSite;
                }
            } catch (...) {
                built.error = std::current_exception();
            }
            return built;
        }));
    }
    std::vector<runtime::ExecutionJob> jobs;
    std::exception_ptr error;
    for (std::future<Built>& future : builds) {
        Built built = future.get();
        if (built.error) {
            error = error ? error : built.error;
            continue;
        }
        jobs.insert(jobs.end(), std::make_move_iterator(built.jobs.begin()),
                    std::make_move_iterator(built.jobs.end()));
    }
    if (error) {
        std::rethrow_exception(error);
    }
    return jobs;
}

/**
 * Run one SRB experiment per entry of @p groups on @p runner as ONE
 * Executor batch and hand each experiment's results to @p consume, in
 * group order, so the happy path is bit-identical to a serial run. The
 * calling thread draws every experiment (the draws own the runner's
 * generator); the pool builds their jobs, then simulates them.
 *
 * Resilience: job errors are captured per job instead of aborting the
 * batch. An experiment with any failed job is resubmitted with its
 * *identical* jobs (same seeds — a successful retry reproduces the
 * failure-free result exactly) up to kMaxAttempts total tries.
 * Experiments still failing are skipped; their group indices land in
 * @p quarantined.
 */
void
RunExperimentBatch(
    RbRunner& runner, const std::vector<std::vector<EdgeId>>& groups,
    CharacterizationRunReport* report,
    std::vector<size_t>* quarantined,
    const std::function<void(size_t, const std::vector<RbResult>&)>& consume)
{
    std::vector<SrbExperiment> experiments;
    runtime::ExecutionRequest request;
    request.capture_job_errors = true;
    {
        telemetry::ScopedSpan span("charz.prepare");
        experiments.reserve(groups.size());
        for (const std::vector<EdgeId>& edges : groups) {
            experiments.push_back(runner.DrawSimultaneous(edges));
        }
        request.jobs =
            BuildJobsOnPool(runner, runner.executor().pool(), experiments);
    }
    const size_t jobs_per_experiment =
        groups.empty() ? 0 : request.jobs.size() / groups.size();
    XTALK_ASSERT(groups.empty() ||
                     request.jobs.size() % groups.size() == 0,
                 "uneven result slices");

    std::vector<runtime::ExecutionResult> results =
        runner.executor().Submit(request);

    auto failed_experiments = [&] {
        std::vector<size_t> failed;
        for (size_t i = 0; i < experiments.size(); ++i) {
            for (size_t k = 0; k < jobs_per_experiment; ++k) {
                if (!results[i * jobs_per_experiment + k].ok) {
                    failed.push_back(i);
                    break;
                }
            }
        }
        return failed;
    };
    auto count_failed_jobs = [&](const std::vector<size_t>& failed) {
        int n = 0;
        for (size_t i : failed) {
            for (size_t k = 0; k < jobs_per_experiment; ++k) {
                if (!results[i * jobs_per_experiment + k].ok) {
                    ++n;
                }
            }
        }
        return n;
    };

    // Bounded retry: resubmit every failed experiment's identical jobs
    // as one batch per round.
    std::vector<size_t> failed = failed_experiments();
    std::set<size_t> ever_failed(failed.begin(), failed.end());
    if (report) {
        report->failed_jobs += count_failed_jobs(failed);
    }
    if (telemetry::JournalEnabled()) {
        for (size_t i = 0; i < experiments.size(); ++i) {
            telemetry::JournalEmit(
                "charz.experiment",
                {{"group", static_cast<uint64_t>(i)},
                 {"edges",
                  static_cast<uint64_t>(groups[i].size())},
                 {"ok", ever_failed.count(i) == 0}});
        }
    }
    for (int attempt = 1; !failed.empty() && attempt < kMaxAttempts;
         ++attempt) {
        if (telemetry::Enabled()) {
            telemetry::GetCounter("retry.attempts").Add(failed.size());
        }
        if (telemetry::JournalEnabled()) {
            for (size_t i : failed) {
                telemetry::JournalEmit(
                    "charz.retry",
                    {{"group", static_cast<uint64_t>(i)},
                     {"attempt", attempt}});
            }
        }
        runtime::ExecutionRequest retry_request;
        retry_request.capture_job_errors = true;
        for (size_t i : failed) {
            const auto begin = request.jobs.begin() + i * jobs_per_experiment;
            retry_request.jobs.insert(retry_request.jobs.end(), begin,
                                      begin + jobs_per_experiment);
        }
        const std::vector<runtime::ExecutionResult> retry_results =
            runner.executor().Submit(retry_request);
        for (size_t f = 0; f < failed.size(); ++f) {
            const size_t i = failed[f];
            for (size_t k = 0; k < jobs_per_experiment; ++k) {
                results[i * jobs_per_experiment + k] =
                    retry_results[f * jobs_per_experiment + k];
            }
        }
        failed = failed_experiments();
        if (report) {
            ++report->retry_rounds;
            report->failed_jobs += count_failed_jobs(failed);
        }
    }
    const std::set<size_t> quarantine_set(failed.begin(), failed.end());
    if (report) {
        for (size_t i : ever_failed) {
            if (quarantine_set.count(i) == 0) {
                ++report->retried_experiments;
            }
        }
    }
    if (!failed.empty()) {
        std::ostringstream msg;
        msg << "characterization: quarantining " << failed.size()
            << " experiment(s) after " << kMaxAttempts
            << " attempt(s)";
        Warn(msg.str());
    }

    telemetry::ScopedSpan span("charz.reduce");
    for (size_t i = 0; i < experiments.size(); ++i) {
        if (quarantine_set.count(i) > 0) {
            telemetry::JournalEmit(
                "charz.quarantine",
                {{"group", static_cast<uint64_t>(i)},
                 {"attempts", kMaxAttempts}});
            if (quarantined) {
                quarantined->push_back(i);
            }
            continue;
        }
        consume(i, runner.ReduceSimultaneous(
                       experiments[i],
                       std::span<const runtime::ExecutionResult>(results)
                           .subspan(i * jobs_per_experiment,
                                    jobs_per_experiment)));
    }
}

}  // namespace

CrosstalkCharacterization
CrosstalkCharacterizer::MeasureIndependent(const std::vector<EdgeId>& edges,
                                           CharacterizationRunReport* report)
{
    telemetry::ScopedSpan span("charz.independent_rb");
    if (telemetry::Enabled()) {
        telemetry::GetCounter("charz.independent.edges")
            .Add(static_cast<uint64_t>(edges.size()));
    }
    CrosstalkCharacterization out;
    RbRunner runner(*device_, config_.rb, config_.exec);
    std::vector<std::vector<EdgeId>> groups;
    groups.reserve(edges.size());
    for (EdgeId edge : edges) {
        groups.push_back({edge});
    }
    std::vector<size_t> quarantined;
    RunExperimentBatch(
        runner, groups, report, &quarantined,
        [&](size_t i, const std::vector<RbResult>& results) {
            const RbResult& result = results.front();
            if (result.ok) {
                out.SetIndependentError(
                    edges[i], std::clamp(result.cnot_error, 0.0, 1.0));
            }
        });
    if (!quarantined.empty()) {
        if (report) {
            for (size_t i : quarantined) {
                report->quarantined_edges.push_back(edges[i]);
            }
        }
        if (telemetry::Enabled()) {
            telemetry::GetCounter("characterize.quarantined_edges")
                .Add(quarantined.size());
        }
    }
    return out;
}

CrosstalkCharacterization
CrosstalkCharacterizer::Run(const CharacterizationPlan& plan,
                            CharacterizationRunReport* report)
{
    telemetry::ScopedSpan span("charz.run");
    if (telemetry::Enabled()) {
        telemetry::GetCounter("charz.runs").Add(1);
        telemetry::GetCounter("charz.plan.batches")
            .Add(static_cast<uint64_t>(plan.batches.size()));
        telemetry::GetCounter("charz.plan.experiments")
            .Add(static_cast<uint64_t>(plan.NumExperiments()));
        telemetry::SetLabel("charz.policy", PolicyName(plan.policy));
    }

    // Independent RB on every coupler the plan touches.
    std::set<EdgeId> edge_set;
    for (const ExperimentBin& bin : plan.batches) {
        for (const GatePair& pair : bin) {
            edge_set.insert(pair.first);
            edge_set.insert(pair.second);
        }
    }
    CrosstalkCharacterization out = MeasureIndependent(
        std::vector<EdgeId>(edge_set.begin(), edge_set.end()), report);

    // One SRB per batch: on hardware, all couplers of a batch run
    // simultaneously in one job (which is what the cost model charges).
    // In simulation the joint dynamics factorize exactly across pairs —
    // packed pairs are >= 2 hops apart, and every noise channel in the
    // model is local to a pair — so each pair is simulated as its own
    // 4-qubit SRB, which is distribution-identical and exponentially
    // cheaper than the joint statevector. All pairs of all bins fan out
    // as one Executor batch.
    RbRunner runner(*device_, config_.rb, config_.exec);
    std::vector<std::vector<EdgeId>> groups;
    for (const ExperimentBin& bin : plan.batches) {
        for (const GatePair& pair : bin) {
            groups.push_back({pair.first, pair.second});
        }
    }
    std::vector<size_t> quarantined;
    RunExperimentBatch(
        runner, groups, report, &quarantined,
        [&](size_t i, const std::vector<RbResult>& results) {
            const GatePair pair{groups[i][0], groups[i][1]};
            for (const RbResult& r : results) {
                if (!r.ok) {
                    continue;
                }
                const EdgeId partner =
                    r.edge == pair.first ? pair.second : pair.first;
                out.SetConditionalError(r.edge, partner,
                                        std::clamp(r.cnot_error, 0.0, 1.0));
            }
        });
    if (!quarantined.empty()) {
        if (report) {
            for (size_t i : quarantined) {
                report->quarantined_pairs.push_back(
                    {groups[i][0], groups[i][1]});
            }
        }
        if (telemetry::Enabled()) {
            telemetry::GetCounter("characterize.quarantined_pairs")
                .Add(quarantined.size());
        }
    }
    return out;
}

}  // namespace xtalk
