#include "scheduler/portfolio.h"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/error.h"
#include "common/logging.h"
#include "faults/faults.h"
#include "scheduler/anneal_scheduler.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/omega_tuning.h"
#include "scheduler/scheduler.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

using Clock = std::chrono::steady_clock;

double
MsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Tightest of two advisory budgets, where 0 means "none". */
unsigned
MinBudget(unsigned a, unsigned b)
{
    if (a == 0) {
        return b;
    }
    if (b == 0) {
        return a;
    }
    return std::min(a, b);
}

/**
 * Scoring data for members that can schedule without characterization:
 * an empty characterization makes EstimateScheduleError fall back to
 * calibration rates for every edge.
 */
const CrosstalkCharacterization&
ScoringData(const PortfolioContext& ctx)
{
    static const CrosstalkCharacterization empty;
    return ctx.characterization ? *ctx.characterization : empty;
}

/** @p schedule scored under @p ctx's error model, solved at @p omega
 *  when the scheduler takes one. */
ScheduleCandidate
Scored(ScheduledCircuit schedule, const PortfolioContext& ctx,
       std::optional<double> omega = std::nullopt)
{
    ScheduleCandidate candidate;
    candidate.estimate =
        EstimateScheduleError(schedule, *ctx.device, ScoringData(ctx));
    candidate.schedule = std::move(schedule);
    candidate.omega = omega;
    return candidate;
}

/** XtalkSched's options with the race budget applied. */
XtalkSchedulerOptions
WithRaceBudget(XtalkSchedulerOptions options, const PortfolioContext& ctx)
{
    options.total_budget_ms =
        MinBudget(options.total_budget_ms, ctx.budget_ms);
    return options;
}

ScheduleCandidate
ScheduleSerial(const Circuit& circuit, const PortfolioContext& ctx,
               const PortfolioMemberOptions& /*options*/)
{
    return Scored(SerialScheduler(*ctx.device).Schedule(circuit), ctx);
}

ScheduleCandidate
ScheduleParallel(const Circuit& circuit, const PortfolioContext& ctx,
                 const PortfolioMemberOptions& /*options*/)
{
    return Scored(ParallelScheduler(*ctx.device).Schedule(circuit), ctx);
}

ScheduleCandidate
ScheduleGreedy(const Circuit& circuit, const PortfolioContext& ctx,
               const PortfolioMemberOptions& options)
{
    // Fault point for exercising greedy losing the race (the second
    // hop of the legacy degradation chain).
    faults::MaybeInject("sched.greedy");
    const double omega = options.xtalk.omega;
    GreedyXtalkScheduler scheduler(*ctx.device, *ctx.characterization,
                                   omega);
    return Scored(scheduler.Schedule(circuit), ctx, omega);
}

ScheduleCandidate
ScheduleAnneal(const Circuit& circuit, const PortfolioContext& ctx,
               const PortfolioMemberOptions& options)
{
    AnnealSchedulerOptions anneal;
    anneal.omega = options.xtalk.omega;
    anneal.budget_ms = ctx.budget_ms;
    AnnealScheduler scheduler(*ctx.device, *ctx.characterization, anneal);
    return Scored(scheduler.Schedule(circuit), ctx, anneal.omega);
}

ScheduleCandidate
ScheduleXtalk(const Circuit& circuit, const PortfolioContext& ctx,
              const PortfolioMemberOptions& options)
{
    XtalkScheduler scheduler(*ctx.device, *ctx.characterization,
                             WithRaceBudget(options.xtalk, ctx));
    ScheduleCandidate candidate =
        Scored(scheduler.Schedule(circuit), ctx, options.xtalk.omega);
    candidate.start_ns = scheduler.last_start_times();
    candidate.candidate_pairs = scheduler.last_candidate_pairs();
    return candidate;
}

ScheduleCandidate
ScheduleAutoOmega(const Circuit& circuit, const PortfolioContext& ctx,
                  const PortfolioMemberOptions& options)
{
    OmegaSelection selected = SelectOmegaByModel(
        *ctx.device, *ctx.characterization, circuit,
        options.omega_candidates, WithRaceBudget(options.xtalk, ctx));
    ScheduleCandidate candidate;
    candidate.schedule = std::move(selected.schedule);
    candidate.estimate = selected.estimate;
    candidate.omega = selected.omega;
    candidate.start_ns = std::move(selected.start_ns);
    candidate.candidate_pairs = std::move(selected.candidate_pairs);
    candidate.sweep = std::move(selected.sweep);
    return candidate;
}

/** One member's race bookkeeping. */
struct MemberAttempt {
    bool attempted = false;
    std::optional<ScheduleCandidate> candidate;
    std::exception_ptr error;
    std::string error_message;
    bool internal = false;
    double wall_ms = 0.0;
};

/** Run one member, capturing its outcome; never throws. */
void
RunOne(const PortfolioMember& member, const Circuit& circuit,
       PortfolioContext ctx, MemberAttempt* attempt)
{
    telemetry::ScopedSpan span("sched.portfolio.member");
    const Clock::time_point t0 = Clock::now();
    attempt->attempted = true;
    try {
        attempt->candidate = member.Produce(circuit, ctx);
    } catch (const InternalError& e) {
        attempt->error = std::current_exception();
        attempt->error_message = e.what();
        attempt->internal = true;
    } catch (const std::exception& e) {
        attempt->error = std::current_exception();
        attempt->error_message = e.what();
    } catch (...) {
        attempt->error = std::current_exception();
        attempt->error_message = "unknown error";
    }
    attempt->wall_ms = MsSince(t0);
}

}  // namespace

const std::vector<PortfolioMemberInfo>&
PortfolioRegistry()
{
    // The SMT members keep the legacy degradation chain as backups.
    static const std::vector<std::string> smt_backups{"greedy", "parallel"};
    static const std::vector<PortfolioMemberInfo> rows{
        {"serial", "SerialSched",
         "one gate at a time: maximal crosstalk avoidance, maximal "
         "decoherence (Table 1 baseline)",
         false, {}, false, &ScheduleSerial},
        {"parallel", "ParSched",
         "maximal parallelism, right-aligned (the IBM hardware "
         "scheduler baseline)",
         false, {}, false, &ScheduleParallel},
        {"greedy", "GreedySched",
         "single-pass list scheduler that delays gates past "
         "high-crosstalk partners when the model favours it",
         true, {}, false, &ScheduleGreedy},
        {"anneal", "AnnealSched",
         "seeded simulated annealing over serialization decisions, "
         "scored by the crosstalk cost model",
         true, {}, false, &ScheduleAnneal},
        {"xtalk", "XtalkSched",
         "exact SMT optimization of the crosstalk/decoherence "
         "objective (the paper's scheduler)",
         true, smt_backups, false, &ScheduleXtalk},
        {"auto", "XtalkSched(auto)",
         "SMT scheduler with model-guided omega selection over a "
         "warm-started candidate sweep",
         true, smt_backups, true, &ScheduleAutoOmega},
    };
    return rows;
}

const std::vector<std::string>&
DefaultPortfolio()
{
    static const std::vector<std::string> keys{"xtalk", "anneal", "greedy",
                                               "parallel", "serial"};
    return keys;
}

const std::vector<double>&
DefaultOmegaCandidates()
{
    static const std::vector<double> omegas{0.0,  0.05, 0.1,  0.2,
                                            0.35, 0.5,  0.75, 1.0};
    return omegas;
}

const PortfolioMemberInfo*
FindPortfolioMember(const std::string& key)
{
    for (const PortfolioMemberInfo& row : PortfolioRegistry()) {
        if (row.key == key) {
            return &row;
        }
    }
    return nullptr;
}

std::unique_ptr<PortfolioMember>
MakePortfolioMember(const std::string& key,
                    const PortfolioMemberOptions& options)
{
    const PortfolioMemberInfo* row = FindPortfolioMember(key);
    if (row == nullptr) {
        throw Error("unknown portfolio member '" + key + "'");
    }
    return std::make_unique<PortfolioMember>(*row, options);
}

PortfolioMember::PortfolioMember(const PortfolioMemberInfo& info,
                                 PortfolioMemberOptions options)
    : info_(info), options_(std::move(options))
{
    XTALK_REQUIRE(!info_.sweeps_omega || !options_.omega_candidates.empty(),
                  key() << " member needs at least one omega candidate");
}

ScheduleCandidate
PortfolioMember::Produce(const Circuit& circuit,
                         const PortfolioContext& ctx) const
{
    XTALK_REQUIRE(ctx.characterization || !info_.needs_characterization,
                  info_.display_name
                      << " needs crosstalk characterization data");
    ScheduleCandidate candidate = info_.schedule(circuit, ctx, options_);
    candidate.member = info_.key;
    candidate.scheduler_name = info_.display_name;
    return candidate;
}

bool
IsSchedulerPolicy(const std::string& key)
{
    return key == kPortfolioPolicy || FindPortfolioMember(key) != nullptr;
}

bool
PortfolioLineup::NeedsCharacterization() const
{
    return std::any_of(
        members.begin(), members.end(), [](const std::string& key) {
            const PortfolioMemberInfo* row = FindPortfolioMember(key);
            return row != nullptr && row->needs_characterization;
        });
}

PortfolioLineup
LineupFor(const std::string& policy,
          const std::vector<std::string>& portfolio)
{
    if (policy == kPortfolioPolicy) {
        return {portfolio.empty() ? DefaultPortfolio() : portfolio, false};
    }
    const PortfolioMemberInfo* row = FindPortfolioMember(policy);
    if (row == nullptr) {
        throw Error("unknown scheduler policy '" + policy + "'");
    }
    PortfolioLineup lineup{{row->key}, !row->backups.empty()};
    lineup.members.insert(lineup.members.end(), row->backups.begin(),
                          row->backups.end());
    return lineup;
}

const char*
PortfolioOutcomeStatusName(PortfolioMemberOutcome::Status s)
{
    switch (s) {
        case PortfolioMemberOutcome::Status::kWon:
            return "won";
        case PortfolioMemberOutcome::Status::kLost:
            return "lost";
        case PortfolioMemberOutcome::Status::kFailed:
            return "failed";
    }
    return "unknown";
}

SchedulerPortfolio::SchedulerPortfolio(
    std::vector<std::unique_ptr<PortfolioMember>> members)
    : members_(std::move(members))
{
    XTALK_REQUIRE(!members_.empty(),
                  "portfolio needs at least one member");
    for (const auto& member : members_) {
        XTALK_REQUIRE(member != nullptr, "null portfolio member");
    }
}

PortfolioResult
SchedulerPortfolio::Run(const Circuit& circuit, const PortfolioContext& ctx,
                        const PortfolioRunOptions& options)
{
    XTALK_REQUIRE(ctx.device != nullptr,
                  "portfolio context needs a device");
    telemetry::ScopedSpan span("sched.portfolio.race");
    const int n = static_cast<int>(members_.size());
    {
        std::string names;
        for (const auto& member : members_) {
            names += (names.empty() ? "" : ",") + member->key();
        }
        telemetry::JournalEmit(
            "sched.portfolio.start",
            {{"members", names},
             {"prefer_first", options.prefer_first},
             {"budget_ms", static_cast<uint64_t>(options.budget_ms)}});
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sched.portfolio.races").Add(1);
    }

    std::vector<MemberAttempt> attempts(members_.size());
    PortfolioContext member_ctx = ctx;
    member_ctx.budget_ms = MinBudget(ctx.budget_ms, options.budget_ms);

    // Race members [first, n) concurrently on the pool and join them
    // all: every member runs to completion (or to its budget).
    const auto race = [&](int first) {
        std::shared_ptr<runtime::ThreadPool> pool =
            options.pool ? options.pool : runtime::ThreadPool::Shared();
        std::vector<std::future<void>> futures;
        futures.reserve(n - first);
        for (int rank = first; rank < n; ++rank) {
            MemberAttempt* attempt = &attempts[rank];
            const PortfolioMember* member = members_[rank].get();
            futures.push_back(pool->Submit([member, &circuit, &member_ctx,
                                            attempt] {
                RunOne(*member, circuit, member_ctx, attempt);
            }));
        }
        for (std::future<void>& future : futures) {
            future.get();
        }
    };

    if (options.prefer_first || n == 1) {
        // Primary-first: the first member wins outright when it
        // succeeds; the race is only for picking the best survivor
        // after a failure. A lone member has no race at all. Running it
        // inline keeps the common path free of pool-scheduling effects
        // entirely: no wait behind other requests' pool work.
        RunOne(*members_[0], circuit, member_ctx, &attempts[0]);
        if (!attempts[0].candidate && !attempts[0].internal && n > 1) {
            race(1);
        }
    } else {
        race(0);
    }

    // Bugs are never raced around: any InternalError propagates after
    // every attempted member joined.
    for (const MemberAttempt& attempt : attempts) {
        if (attempt.attempted && attempt.internal) {
            std::rethrow_exception(attempt.error);
        }
    }

    // Select: highest modeled success probability, exact ties to the
    // earlier rank (strict > keeps the first best).
    int winner = -1;
    double best_score = 0.0;
    for (int rank = 0; rank < n; ++rank) {
        if (!attempts[rank].candidate) {
            continue;
        }
        const double score =
            attempts[rank].candidate->estimate.success_probability;
        if (winner < 0 || score > best_score) {
            winner = rank;
            best_score = score;
        }
    }
    if (winner < 0) {
        // Every attempted member failed: surface the first-ranked
        // member's error (the one the caller asked for most).
        for (const MemberAttempt& attempt : attempts) {
            if (attempt.attempted && attempt.error) {
                std::rethrow_exception(attempt.error);
            }
        }
        throw Error("portfolio race produced no candidate");  // unreachable
    }

    // Degradation, generalizing the legacy chain: any failure ranked
    // before the winner means the preferred scheduler lost to an error.
    std::string reason;
    for (int rank = 0; rank < winner; ++rank) {
        if (!attempts[rank].attempted || !attempts[rank].error) {
            continue;
        }
        if (reason.empty()) {
            reason = attempts[rank].error_message;
        } else {
            reason += "; " + members_[rank]->display_name() +
                      " failed: " + attempts[rank].error_message;
        }
    }

    if (options.prefer_first && attempts[0].error) {
        // Legacy degradation-chain observables, preserved for operators
        // and CI: one fallback hop per failed member before the winner.
        if (telemetry::Enabled()) {
            telemetry::GetCounter("sched.xtalk.fallbacks").Add(1);
        }
        std::string hop_reason;
        for (int rank = 0; rank < winner; ++rank) {
            if (!attempts[rank].attempted || !attempts[rank].error) {
                continue;
            }
            if (hop_reason.empty()) {
                hop_reason = attempts[rank].error_message;
                Warn("schedule: " + members_[rank]->display_name() +
                     " failed (" + hop_reason + "); degrading to " +
                     members_[rank + 1]->display_name());
            } else {
                hop_reason += "; " + members_[rank]->display_name() +
                              " failed: " + attempts[rank].error_message;
                Warn("schedule: " + members_[rank]->display_name() +
                     " failed too; degrading to " +
                     members_[rank + 1]->display_name());
            }
            telemetry::JournalEmit(
                "sched.fallback",
                {{"from", members_[rank]->display_name()},
                 {"to", members_[rank + 1]->display_name()},
                 {"reason", hop_reason}});
        }
    }

    PortfolioResult result;
    result.winner_rank = winner;
    result.winner = std::move(*attempts[winner].candidate);
    const bool degraded = !reason.empty();
    result.degradation = degraded ? members_[winner]->key() : "none";
    result.degradation_reason = degraded ? reason : "";
    for (int rank = 0; rank < n; ++rank) {
        if (!attempts[rank].attempted) {
            continue;
        }
        PortfolioMemberOutcome outcome;
        outcome.member = members_[rank]->key();
        outcome.scheduler_name = members_[rank]->display_name();
        outcome.wall_ms = attempts[rank].wall_ms;
        if (rank == winner) {
            outcome.status = PortfolioMemberOutcome::Status::kWon;
            outcome.score = result.winner.estimate.success_probability;
            outcome.has_score = true;
        } else if (attempts[rank].candidate) {
            outcome.status = PortfolioMemberOutcome::Status::kLost;
            outcome.score =
                attempts[rank].candidate->estimate.success_probability;
            outcome.has_score = true;
        } else {
            outcome.status = PortfolioMemberOutcome::Status::kFailed;
            outcome.reason = attempts[rank].error_message;
        }
        telemetry::JournalEmit(
            "sched.portfolio.member",
            {{"member", outcome.member},
             {"scheduler", outcome.scheduler_name},
             {"status", PortfolioOutcomeStatusName(outcome.status)},
             {"score", outcome.score},
             {"wall_ms", outcome.wall_ms},
             {"reason", outcome.reason}});
        result.outcomes.push_back(std::move(outcome));
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sched.portfolio.wins." +
                              result.winner.member)
            .Add(1);
    }
    telemetry::JournalEmit(
        "sched.portfolio.winner",
        {{"member", result.winner.member},
         {"scheduler", result.winner.scheduler_name},
         {"score", result.winner.estimate.success_probability},
         {"rank", result.winner_rank},
         {"degradation", result.degradation}});
    return result;
}

}  // namespace xtalk
