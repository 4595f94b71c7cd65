/**
 * @file
 * Scheduler portfolio racing: every scheduler in the repo — SerialSched,
 * ParSched, GreedySched, AnnealSched, XtalkSched, and the model-guided
 * ω sweep — behind one candidate-producing interface, raced concurrently
 * under a shared deadline.
 *
 * Each registry row holds its scheduler as a pure function from circuit
 * to ScheduleCandidate: the timed schedule plus its modeled quality
 * (scheduler/analysis.h) and whatever ordering artifacts barrier
 * lowering needs. A PortfolioMember is a row and the options it runs
 * with. SchedulerPortfolio races its members on the runtime
 * ThreadPool; a member that exhausts its budget or throws a recoverable
 * error is just a member losing the race. The winner is the candidate
 * with the highest modeled success probability; an exact tie goes to
 * the member listed first. Selection is a pure function of the member
 * list and the candidates, and every member is deterministic (seeded,
 * no wall-clock dependence in its output), so the winning schedule is
 * bit-identical at any thread count.
 *
 * The member registry (PortfolioRegistry) is the one place a scheduler
 * is named. A scheduling policy is a member key or "portfolio", and
 * LineupFor derives the members a policy races from the rows.
 *
 * Every attempted member runs to completion: no member is stopped
 * because another finished first or scored well, so without a budget
 * every member's outcome depends only on the inputs. Budgets are the
 * only early exit.
 *
 * Threading contract: Run() blocks on pool futures, so — like
 * runtime::Executor::Submit — it must NOT be called from a pool worker
 * of the same pool (the join would deadlock a fully-busy pool). Members
 * themselves never submit to the pool. A lone member, and the first
 * member in prefer-first mode, run inline on the calling thread.
 *
 * Failure semantics: recoverable failures (SolverFailure, injected
 * transient faults) make the member lose; InternalError — including
 * kind=internal injected faults — is rethrown after every attempted
 * member joined: bugs are never raced around. When every member fails,
 * the first-ranked member's exception is rethrown.
 */
#ifndef XTALK_SCHEDULER_PORTFOLIO_H
#define XTALK_SCHEDULER_PORTFOLIO_H

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "scheduler/analysis.h"
#include "scheduler/xtalk_scheduler.h"

namespace xtalk {

/** Everything a member needs to produce a candidate. */
struct PortfolioContext {
    const Device* device = nullptr;
    /**
     * May be null only for members whose registry row does not need
     * characterization; those then score against calibration-only
     * rates. The others fail without it.
     */
    const CrosstalkCharacterization* characterization = nullptr;
    /**
     * Advisory wall-clock budget for this member, in ms; 0 = none.
     * Tightens (never loosens) the member's own configured budget.
     */
    unsigned budget_ms = 0;
};

/** One scheduler's scored entry in the race. */
struct ScheduleCandidate {
    ScheduledCircuit schedule{1};
    /** Modeled quality under the characterized error model; the race
     *  score is estimate.success_probability. */
    ScheduleErrorEstimate estimate;
    /** Producing member's policy key ("xtalk", "anneal", ...). */
    std::string member;
    /** Scheduler display name ("XtalkSched", "AnnealSched", ...). */
    std::string scheduler_name;
    /** ω the schedule was solved/scored at, when the member uses one. */
    std::optional<double> omega;
    /** SMT ordering artifacts for barrier lowering (xtalk/auto only):
     *  per-gate solver start times and serialization-candidate pairs. */
    std::vector<double> start_ns;
    std::vector<std::pair<GateId, GateId>> candidate_pairs;
    /** (ω, modeled success) per candidate, for the "auto" member. */
    std::vector<std::pair<double, double>> sweep;
};

/** ω candidates the "auto" member sweeps unless configured otherwise. */
const std::vector<double>& DefaultOmegaCandidates();

/** Member knobs for MakePortfolioMember. */
struct PortfolioMemberOptions {
    /** XtalkSched's options; greedy and anneal run at its omega. */
    XtalkSchedulerOptions xtalk;
    /** ω candidates for the "auto" member. */
    std::vector<double> omega_candidates = DefaultOmegaCandidates();
};

/**
 * One registry row: the single place a scheduler is named. Policy keys,
 * `schedule:<key>` passes, `xtalkc --list-schedulers`, request
 * validation and the service's characterization decision all derive
 * from these rows.
 */
struct PortfolioMemberInfo {
    /** Stable policy key; doubles as the degradation label and the
     *  wire name in xtalk.request.v1. */
    std::string key;
    /** Scheduler display name, e.g. "XtalkSched". */
    std::string display_name;
    /** One-line description for `xtalkc --list-schedulers`. */
    std::string description;
    /** True when the member cannot schedule without crosstalk data. */
    bool needs_characterization = false;
    /** Members the policy `key` races, in rank order, when this member
     *  fails (prefer-first mode); empty = the member runs alone. */
    std::vector<std::string> backups;
    /** True when the member sweeps PortfolioMemberOptions::
     *  omega_candidates, which must then be non-empty. */
    bool sweeps_omega = false;
    /** The scheduler itself: schedule and estimate, plus ω and SMT
     *  ordering artifacts where it has them. */
    ScheduleCandidate (*schedule)(const Circuit& circuit,
                                  const PortfolioContext& ctx,
                                  const PortfolioMemberOptions& options) =
        nullptr;
};

/** A registry row and the options it runs with. */
class PortfolioMember {
  public:
    /** Throws Error when @p info sweeps ω and @p options has no
     *  candidate, so the misconfiguration never reaches a race. */
    PortfolioMember(const PortfolioMemberInfo& info,
                    PortfolioMemberOptions options);

    /** The registry row this member was built from. */
    const PortfolioMemberInfo& info() const { return info_; }
    const std::string& key() const { return info_.key; }
    const std::string& display_name() const { return info_.display_name; }

    /**
     * Produce the scored candidate, stamped with this member's key and
     * display name. Throws on failure, including when the member needs
     * characterization data and @p ctx carries none.
     */
    ScheduleCandidate Produce(const Circuit& circuit,
                              const PortfolioContext& ctx) const;

  private:
    const PortfolioMemberInfo& info_;
    PortfolioMemberOptions options_;
};

/** Every member's row, in `xtalkc --list-schedulers` order. */
const std::vector<PortfolioMemberInfo>& PortfolioRegistry();

/** The row registered under @p key, or null. */
const PortfolioMemberInfo* FindPortfolioMember(const std::string& key);

/** Construct the member registered under @p key; throws Error on an
 *  unknown key. */
std::unique_ptr<PortfolioMember> MakePortfolioMember(
    const std::string& key, const PortfolioMemberOptions& options = {});

/** The policy key that races a member list instead of one member. */
inline constexpr const char* kPortfolioPolicy = "portfolio";

/** The members kPortfolioPolicy races when given no list, in tie-break
 *  rank order. */
const std::vector<std::string>& DefaultPortfolio();

/** True when @p key is a member key or kPortfolioPolicy. */
bool IsSchedulerPolicy(const std::string& key);

/** The members one scheduling policy races. */
struct PortfolioLineup {
    /** Member keys in tie-break rank order. */
    std::vector<std::string> members;
    /** Run members[0] alone; race the rest only if it fails. */
    bool prefer_first = false;

    /** True when some member needs characterization data. */
    bool NeedsCharacterization() const;
};

/**
 * The lineup @p policy races. A member key races its own row followed
 * by that row's backups, prefer-first when it has any;
 * kPortfolioPolicy races @p portfolio outright, or DefaultPortfolio()
 * when that is empty. Throws Error on an unknown policy.
 */
PortfolioLineup LineupFor(const std::string& policy,
                          const std::vector<std::string>& portfolio = {});

/** How one member's race ended. */
struct PortfolioMemberOutcome {
    enum class Status { kWon, kLost, kFailed };

    std::string member;          ///< Policy key.
    std::string scheduler_name;  ///< Display name.
    Status status = Status::kLost;
    /** estimate.success_probability; meaningless when !has_score. */
    double score = 0.0;
    bool has_score = false;
    double wall_ms = 0.0;
    /** Failure message (kFailed) or "" otherwise. */
    std::string reason;
};

/** Stable lowercase status name: "won" | "lost" | "failed". */
const char* PortfolioOutcomeStatusName(PortfolioMemberOutcome::Status s);

/** The race's verdict. */
struct PortfolioResult {
    ScheduleCandidate winner;
    /** Winner's index in the member list (rank order). */
    int winner_rank = -1;
    /**
     * Degradation marker, generalizing the old xtalk→greedy→parallel
     * chain: the winner's policy key when a member ranked BEFORE the
     * winner failed (the preferred scheduler lost the race to an
     * error), "none" otherwise.
     */
    std::string degradation = "none";
    /** Joined failure messages of the members that failed. */
    std::string degradation_reason;
    /** One entry per ATTEMPTED member, in rank order (in prefer-first
     *  mode backups are only attempted when the primary fails). */
    std::vector<PortfolioMemberOutcome> outcomes;
};

/** Race configuration. */
struct PortfolioRunOptions {
    /** Pool to race on; null uses ThreadPool::Shared(). */
    std::shared_ptr<runtime::ThreadPool> pool;
    /** Advisory per-member wall budget, in ms; 0 = none. Members run
     *  concurrently, so each gets the full budget, not a share. */
    unsigned budget_ms = 0;
    /**
     * Primary-first mode (the legacy degradation chain's semantics):
     * run the first member alone; it wins outright on success, and only
     * on failure are the remaining members raced. Keeps the common path
     * of a policy with backups byte-deterministic and wasted-work-free.
     */
    bool prefer_first = false;
};

/** The race runner; see the file comment for the full contract. */
class SchedulerPortfolio {
  public:
    explicit SchedulerPortfolio(
        std::vector<std::unique_ptr<PortfolioMember>> members);

    /** Race every member and select the winner. Blocks; see the file
     *  comment for the threading and failure contract. */
    PortfolioResult Run(const Circuit& circuit, const PortfolioContext& ctx,
                        const PortfolioRunOptions& options = {});

    const std::vector<std::unique_ptr<PortfolioMember>>& members() const
    {
        return members_;
    }

  private:
    std::vector<std::unique_ptr<PortfolioMember>> members_;
};

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_PORTFOLIO_H
