#include "scheduler/xtalk_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

#include <z3++.h>

#include "common/error.h"
#include "common/logging.h"
#include "faults/faults.h"
#include "scheduler/xtalk_problem.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

double
MsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Convert a Z3 numeral (possibly rational) to double. */
double
NumeralToDouble(const z3::expr& e)
{
    std::string s = e.get_decimal_string(12);
    if (!s.empty() && s.back() == '?') {
        s.pop_back();
    }
    return std::stod(s);
}

/** Exact real constant for a duration/time in ns (0.01 ns resolution). */
z3::expr
RealOf(z3::context& ctx, double value)
{
    const long long scaled = std::llround(value * 100.0);
    return ctx.real_val(static_cast<int64_t>(scaled),
                        static_cast<int64_t>(100));
}

using GatePairKey = std::pair<GateId, GateId>;

/**
 * Cap on |CanOlp(g)| in the powerset encoding: each gate keeps its
 * worst offenders, so it asserts at most 2^5 subset implications.
 */
constexpr int kMaxOverlapCandidates = 5;

/**
 * Lazy-refinement budget: after each solve, eligible high-crosstalk
 * pairs that the model overlaps but the encoding omitted (outside the
 * layer window) are added and the problem re-solved, up to this many
 * extra rounds.
 */
constexpr int kMaxRefinementRounds = 4;

/**
 * Objective (eq. 17, decoherence sign corrected). A tiny floor on the
 * decoherence coefficient keeps omega = 1 schedules compact: with a
 * weight of exactly zero the solver may leave arbitrary gaps, which no
 * real backend would execute.
 */
double
DecoherenceWeight(double omega)
{
    return std::max(1.0 - omega, 1e-4);
}

const XtalkProblem::Pair&
FindPair(const XtalkProblem& problem, const GatePairKey& key)
{
    const auto it = std::lower_bound(
        problem.eligible.begin(), problem.eligible.end(), key,
        [](const XtalkProblem::Pair& pair, const GatePairKey& k) {
            return std::make_pair(pair.i, pair.j) < k;
        });
    XTALK_ASSERT(it != problem.eligible.end() && it->i == key.first &&
                     it->j == key.second,
                 "pair " << key.first << "," << key.second
                         << " is not eligible");
    return *it;
}

/**
 * Start-time variables and the round-invariant timing constraints,
 * asserted through @p add: tau >= 0, data dependencies (constraint 1)
 * and simultaneous readout (IBMQ trait).
 */
template <class Add>
std::vector<z3::expr>
EncodeStartTimes(z3::context& ctx, const XtalkProblem& problem, Add&& add)
{
    std::vector<z3::expr> tau;
    tau.reserve(problem.n);
    for (GateId g = 0; g < problem.n; ++g) {
        tau.push_back(ctx.real_const(("tau" + std::to_string(g)).c_str()));
        add(tau[g] >= 0);
    }
    for (const auto& [before, after] : problem.precedence) {
        add(tau[after] >= tau[before] + RealOf(ctx, problem.duration[before]));
    }
    for (const std::vector<GateId>& group : problem.readout_groups) {
        for (size_t k = 1; k < group.size(); ++k) {
            add(tau[group[k]] == tau[group[0]]);
        }
    }
    return tau;
}

/**
 * Decoherence terms (constraints 9-10): first/last gate per qubit are
 * fixed by program order, so the lifetime is linear in tau.
 */
z3::expr
LifetimeSum(z3::context& ctx, const XtalkProblem& problem,
            const std::vector<z3::expr>& tau)
{
    z3::expr sum = ctx.real_val(0);
    for (const XtalkProblem::Lifetime& life : problem.lifetimes) {
        const z3::expr lifetime = tau[life.last] +
                                  RealOf(ctx, problem.duration[life.last]) -
                                  tau[life.first];
        sum = sum + lifetime / RealOf(ctx, life.coherence_ns);
    }
    return sum;
}

/** Overlap indicator body (constraint 2; strict interval overlap so
 *  that abutting gates count as serialized, matching the simulator). */
z3::expr
OverlapOf(z3::context& ctx, const XtalkProblem& problem,
          const std::vector<z3::expr>& tau, GateId i, GateId j)
{
    return (tau[j] < tau[i] + RealOf(ctx, problem.duration[i])) &&
           (tau[i] < tau[j] + RealOf(ctx, problem.duration[j]));
}

/** No partial overlap (constraints 11-13): serialized or nested. */
z3::expr
NoPartialOverlap(z3::context& ctx, const XtalkProblem& problem,
                 const std::vector<z3::expr>& tau, GateId i, GateId j)
{
    const z3::expr di = RealOf(ctx, problem.duration[i]);
    const z3::expr dj = RealOf(ctx, problem.duration[j]);
    return (tau[i] + di <= tau[j]) || (tau[j] + dj <= tau[i]) ||
           ((tau[i] >= tau[j]) && (tau[i] + di <= tau[j] + dj)) ||
           ((tau[j] >= tau[i]) && (tau[j] + dj <= tau[i] + di));
}

/** On sat, read every start time from the model into @p starts. */
z3::check_result
CheckInto(z3::optimize& opt, const std::vector<z3::expr>& tau,
          std::vector<double>* starts)
{
    const z3::check_result result = opt.check();
    if (result == z3::sat) {
        z3::model model = opt.get_model();
        for (size_t g = 0; g < tau.size(); ++g) {
            (*starts)[g] = NumeralToDouble(model.eval(tau[g], true));
        }
    }
    return result;
}

/**
 * Incremental solver session for the default lower-bound encoding.
 *
 * Gate-error terms (constraints 7-8) are lower bounds: "logeps >=
 * log E(g)" plus "logeps >= log E(g|j) when o_gj". Since the objective
 * minimizes sum(logeps), the optimum pins logeps to exactly the max of
 * the active bounds, the value the paper's powerset encoding states per
 * subset of CanOlp(g), with linearly many constraints.
 *
 * The round-invariant part of the problem — start-time variables,
 * dependency and readout constraints, one logeps per eligible gate with
 * its independent-error lower bound, and both objective sums — is
 * asserted exactly once. Lazy refinement only ever ADDS overlap
 * indicators, no-partial-overlap constraints, and conditional-error
 * implications, so rounds re-check() the same context instead of
 * rebuilding it. ω candidates swap objectives under push/pop scopes;
 * pair constraints learned inside a scope are re-asserted permanently
 * for the next candidate via the caller's `encoded` bookkeeping.
 */
class WarmSession {
  public:
    explicit WarmSession(const XtalkProblem& problem)
        : problem_(&problem),
          opt_(ctx_),
          tau_(EncodeStartTimes(ctx_, problem,
                                [this](const z3::expr& c) { Add(c); }))
    {
        // One logeps per eligible gate, declared up front so the
        // objective never changes shape: a gate whose pairs are never
        // encoded sits at its independent lower bound, a constant
        // offset that leaves the argmin untouched.
        z3::expr gate_error_sum = ctx_.real_val(0);
        for (GateId g : problem.eligible_gates) {
            z3::expr logeps =
                ctx_.real_const(("logeps" + std::to_string(g)).c_str());
            Add(logeps >= RealOf(ctx_, problem.log_independent[g]));
            gate_error_sum = gate_error_sum + logeps;
            logeps_.emplace(g, logeps);
        }
        gate_error_sum_ = std::make_unique<z3::expr>(gate_error_sum);
        decoherence_sum_ =
            std::make_unique<z3::expr>(LifetimeSum(ctx_, problem, tau_));
    }

    /** Assert every pair in @p encoded not yet in the solver. */
    void
    AssertPending(const std::set<GatePairKey>& encoded)
    {
        for (const GatePairKey& pair : encoded) {
            if (permanent_.count(pair) || scoped_.count(pair)) {
                continue;
            }
            AssertPair(FindPair(*problem_, pair));
            (scope_depth_ > 0 ? scoped_ : permanent_).insert(pair);
        }
    }

    /** Open a push scope and minimize the ω-weighted objective in it. */
    void
    PushObjective(double omega)
    {
        opt_.push();
        ++scope_depth_;
        Minimize(omega);
    }

    /** Minimize without a scope (single-ω solves). */
    void
    Minimize(double omega)
    {
        opt_.minimize(RealOf(ctx_, omega) * *gate_error_sum_ +
                      RealOf(ctx_, DecoherenceWeight(omega)) *
                          *decoherence_sum_);
    }

    /** Close the scope: drops its objective and its pair constraints. */
    void
    Pop()
    {
        opt_.pop();
        --scope_depth_;
        scoped_.clear();
    }

    void
    SetTimeout(unsigned timeout_ms)
    {
        z3::params params(ctx_);
        params.set("timeout", timeout_ms);
        opt_.set(params);
    }

    /** check(); on sat fills @p starts from the model. */
    z3::check_result
    Check(std::vector<double>* starts)
    {
        return CheckInto(opt_, tau_, starts);
    }

    /** Constraints added since the last call (for the round journal). */
    long long
    TakeNewConstraints()
    {
        const long long added = num_constraints_ - reported_;
        reported_ = num_constraints_;
        return added;
    }

  private:
    void
    Add(const z3::expr& constraint)
    {
        opt_.add(constraint);
        ++num_constraints_;
    }

    void
    AssertPair(const XtalkProblem::Pair& pair)
    {
        const GateId i = pair.i;
        const GateId j = pair.j;
        z3::expr o = ctx_.bool_const(
            ("o_" + std::to_string(i) + "_" + std::to_string(j)).c_str());
        Add(o == OverlapOf(ctx_, *problem_, tau_, i, j));
        if (problem_->no_partial_overlap) {
            Add(NoPartialOverlap(ctx_, *problem_, tau_, i, j));
        }
        Add(z3::implies(o, logeps_.at(i) >=
                               RealOf(ctx_, pair.log_conditional_ij)));
        Add(z3::implies(o, logeps_.at(j) >=
                               RealOf(ctx_, pair.log_conditional_ji)));
    }

    const XtalkProblem* problem_;
    z3::context ctx_;
    z3::optimize opt_;
    long long num_constraints_ = 0;
    long long reported_ = 0;
    std::vector<z3::expr> tau_;
    std::map<GateId, z3::expr> logeps_;
    std::unique_ptr<z3::expr> gate_error_sum_;
    std::unique_ptr<z3::expr> decoherence_sum_;
    std::set<GatePairKey> permanent_;
    std::set<GatePairKey> scoped_;
    int scope_depth_ = 0;
};

/**
 * One from-scratch solver round of the paper's powerset encoding, whose
 * constraints are not monotone under refinement. The constructor builds
 * the context and asserts everything; Check() solves.
 */
class ColdRound {
  public:
    ColdRound(const XtalkProblem& problem,
              const std::vector<GatePairKey>& pairs, double omega,
              unsigned timeout_ms)
        : opt_(ctx_)
    {
        z3::params params(ctx_);
        params.set("timeout", timeout_ms);
        opt_.set(params);
        tau_ = EncodeStartTimes(ctx_, problem,
                                [this](const z3::expr& c) { Add(c); });

        // CanOlp(g): (partner, log E(g | partner)).
        std::vector<std::vector<std::pair<GateId, double>>> can_olp(
            problem.n);
        for (const GatePairKey& key : pairs) {
            const XtalkProblem::Pair& pair = FindPair(problem, key);
            can_olp[pair.i].push_back({pair.j, pair.log_conditional_ij});
            can_olp[pair.j].push_back({pair.i, pair.log_conditional_ji});
        }
        // Bound the powerset: keep the worst offenders per gate.
        for (auto& cands : can_olp) {
            if (static_cast<int>(cands.size()) > kMaxOverlapCandidates) {
                std::sort(cands.begin(), cands.end(),
                          [](const auto& a, const auto& b) {
                              return a.second > b.second;
                          });
                cands.resize(kMaxOverlapCandidates);
                std::sort(cands.begin(), cands.end());
            }
        }

        std::map<GatePairKey, z3::expr> overlap;
        for (const auto& [i, j] : pairs) {
            z3::expr o = ctx_.bool_const(
                ("o_" + std::to_string(i) + "_" + std::to_string(j))
                    .c_str());
            Add(o == OverlapOf(ctx_, problem, tau_, i, j));
            overlap.emplace(std::make_pair(i, j), o);
        }
        auto overlap_var = [&](GateId i, GateId j) {
            const auto key = std::minmax(i, j);
            return overlap.at({key.first, key.second});
        };
        if (problem.no_partial_overlap) {
            for (const auto& [i, j] : pairs) {
                Add(NoPartialOverlap(ctx_, problem, tau_, i, j));
            }
        }

        // Gate-error terms (constraints 7-8): g.eps is the max
        // conditional error over overlapping aggressors, the independent
        // rate otherwise, stated once per subset of CanOlp(g). Exact by
        // construction but exponential in |CanOlp| (capped above).
        z3::expr gate_error_sum = ctx_.real_val(0);
        for (GateId i = 0; i < problem.n; ++i) {
            const auto& cands = can_olp[i];
            if (cands.empty()) {
                continue;
            }
            ++gates_with_candidates_;
            z3::expr logeps =
                ctx_.real_const(("logeps" + std::to_string(i)).c_str());
            const size_t subsets = size_t{1} << cands.size();
            for (size_t mask = 0; mask < subsets; ++mask) {
                z3::expr cond = ctx_.bool_val(true);
                double worst = problem.log_independent[i];
                for (size_t b = 0; b < cands.size(); ++b) {
                    const auto& [j, log_conditional] = cands[b];
                    if (mask & (size_t{1} << b)) {
                        cond = cond && overlap_var(i, j);
                        worst = std::max(worst, log_conditional);
                    } else {
                        cond = cond && !overlap_var(i, j);
                    }
                }
                Add(z3::implies(cond, logeps == RealOf(ctx_, worst)));
            }
            gate_error_sum = gate_error_sum + logeps;
        }

        // Both sums stay alive until the check, as in the warm session:
        // Z3's allocator state at check() picks among tied optima, and
        // releasing them earlier makes it pick differently.
        gate_error_sum_ = std::make_unique<z3::expr>(gate_error_sum);
        decoherence_sum_ =
            std::make_unique<z3::expr>(LifetimeSum(ctx_, problem, tau_));
        opt_.minimize(RealOf(ctx_, omega) * *gate_error_sum_ +
                      RealOf(ctx_, DecoherenceWeight(omega)) *
                          *decoherence_sum_);
    }

    /** check(); on sat fills @p starts from the model. */
    z3::check_result
    Check(std::vector<double>* starts)
    {
        return CheckInto(opt_, tau_, starts);
    }

    long long num_constraints() const { return num_constraints_; }
    int gates_with_candidates() const { return gates_with_candidates_; }

  private:
    void
    Add(const z3::expr& constraint)
    {
        opt_.add(constraint);
        ++num_constraints_;
    }

    z3::context ctx_;
    z3::optimize opt_;
    long long num_constraints_ = 0;
    int gates_with_candidates_ = 0;
    std::vector<z3::expr> tau_;
    std::unique_ptr<z3::expr> gate_error_sum_;
    std::unique_ptr<z3::expr> decoherence_sum_;
};

}  // namespace

XtalkScheduler::XtalkScheduler(
    const Device& device, const CrosstalkCharacterization& characterization,
    XtalkSchedulerOptions options)
    : Scheduler(device),
      characterization_(&characterization),
      options_(options)
{
    XTALK_REQUIRE(options_.omega >= 0.0 && options_.omega <= 1.0,
                  "omega " << options_.omega << " outside [0, 1]");
}

ScheduledCircuit
XtalkScheduler::Schedule(const Circuit& circuit)
{
    std::vector<OmegaSolveResult> results =
        ScheduleForOmegas(circuit, {options_.omega});
    XTALK_REQUIRE(!results.empty(), "single-omega solve returned nothing");
    return std::move(results.front().schedule);
}

std::vector<double>
SolveXtalkProblemWithZ3(const XtalkProblem& problem,
                        const std::vector<std::pair<GateId, GateId>>& pairs,
                        double omega, const XtalkSchedulerOptions& options)
{
    std::vector<double> starts(problem.n, 0.0);
    z3::check_result result = z3::unknown;
    try {
        ColdRound round(problem, pairs, omega, options.timeout_ms);
        result = round.Check(&starts);
    } catch (const z3::exception& e) {
        throw SolverFailure(std::string("XtalkSched: solver produced no "
                                        "model: ") +
                            e.msg());
    }
    XTALK_REQUIRE(result != z3::unsat,
                  "scheduling constraints are unsatisfiable (bug)");
    if (result != z3::sat) {
        throw SolverFailure("XtalkSched: solver returned unknown (timeout?) "
                            "before any satisfiable model was found");
    }
    return starts;
}

std::vector<OmegaSolveResult>
XtalkScheduler::ScheduleForOmegas(const Circuit& circuit,
                                  const std::vector<double>& omegas)
{
    XTALK_REQUIRE(!omegas.empty(), "need at least one omega candidate");
    telemetry::ScopedSpan total_span("sched.xtalk.schedule");
    const auto t_begin = std::chrono::steady_clock::now();
    const XtalkProblem problem = [&] {
        telemetry::ScopedSpan span("sched.xtalk.problem");
        return BuildXtalkProblem(circuit, *device_, *characterization_);
    }();
    const int n = problem.n;

    // Encode only pairs whose ASAP layers are close (deep circuits have
    // quadratically many eligible pairs, nearly all of which could never
    // overlap in a sensible schedule), then lazily refine: if the solved
    // schedule overlaps an un-encoded eligible pair, add it and
    // re-solve. The encoded set is shared across ω candidates — pairs
    // one candidate learned stay encoded for the rest of the sweep.
    std::set<GatePairKey> encoded;
    for (const XtalkProblem::Pair& pair : problem.eligible) {
        if (options_.max_layer_distance <= 0 ||
            std::abs(problem.layer[pair.i] - problem.layer[pair.j]) <=
                options_.max_layer_distance) {
            encoded.insert({pair.i, pair.j});
        }
    }

    stats_ = {};
    // The lower-bound encoding solves every round in one warm session;
    // the powerset encoding builds a cold context per round.
    const bool warm = !options_.use_powerset_encoding;
    // A round that encodes no pair is the lifetime LP, solved exactly as
    // a min-cost flow with no Z3 context. Its optimum does not depend on
    // ω (the pair terms sit at their constant lower bounds), so one flow
    // solve serves the whole sweep. Z3 — the warm session, or the
    // powerset encoding's context for the round — is built on the first
    // round that encodes a pair.
    std::optional<std::vector<double>> flow_starts;
    std::unique_ptr<WarmSession> session;
    const bool multi = omegas.size() > 1;
    const auto budget_state = [&](bool have_model, bool have_results) {
        // 0 = keep solving, 1 = use the model in hand, 2 = abort the
        // sweep with prior results, throws when nothing usable exists.
        if (options_.total_budget_ms > 0 &&
            MsSince(t_begin) >=
                static_cast<double>(options_.total_budget_ms)) {
            if (have_model) {
                return 1;
            }
            if (have_results) {
                return 2;
            }
            throw SolverFailure(
                "XtalkSched: total budget of " +
                std::to_string(options_.total_budget_ms) +
                " ms expired before any model was found");
        }
        return 0;
    };
    const auto record_solve = [&](int round, double omega, bool flow,
                                  z3::check_result result,
                                  long long constraints, size_t pairs,
                                  bool have_model) {
        if (telemetry::Enabled()) {
            telemetry::GetCounter("sched.xtalk.solves").Add(1);
            if (flow) {
                telemetry::GetCounter("sched.xtalk.flow_solves").Add(1);
            }
            telemetry::GetCounter("sched.xtalk.constraints")
                .Add(static_cast<uint64_t>(
                    std::max<long long>(0, constraints)));
            telemetry::GetCounter("sched.xtalk.candidate_pairs")
                .Add(static_cast<uint64_t>(pairs));
            if (result != z3::sat) {
                telemetry::GetCounter("sched.xtalk.solver_timeouts").Add(1);
            }
        }
        telemetry::JournalEmit(
            "sched.solve",
            {{"round", round},
             {"omega", omega},
             {"solver", flow ? "flow" : "z3"},
             {"verdict", result == z3::sat
                             ? "sat"
                             : (result == z3::unsat ? "unsat" : "unknown")},
             {"constraints", constraints},
             {"pairs", static_cast<uint64_t>(pairs)},
             {"warm", warm},
             {"have_model", have_model}});
    };

    std::vector<OmegaSolveResult> results;
    bool sweep_aborted = false;
    for (size_t oi = 0; oi < omegas.size() && !sweep_aborted; ++oi) {
        const double omega = omegas[oi];
        XTALK_REQUIRE(omega >= 0.0 && omega <= 1.0,
                      "omega " << omega << " outside [0, 1]");

        // Whether this ω's objective is set in the warm session yet (in
        // a push scope for a sweep, popped when the ω is done).
        bool objective_set = false;
        std::vector<double> starts(n, 0.0);
        std::vector<GatePairKey> model_pairs;
        bool have_model = false;
        for (int round = 0;; ++round) {
            // Overall wall-clock budget across refinement rounds and ω
            // candidates. Out of budget with a model in hand: stop
            // refining and ship it. Out of budget with nothing: abort
            // (partial sweep) or SolverFailure, so the portfolio can
            // fall back to a non-SMT member.
            const int state = budget_state(have_model, !results.empty());
            if (state == 1) {
                Warn("XtalkSched: budget expired after round " +
                     std::to_string(round) + "; using best known model");
                break;
            }
            if (state == 2) {
                Warn("XtalkSched: budget expired mid-sweep; "
                     "returning the " +
                     std::to_string(results.size()) +
                     " omega candidates already solved");
                sweep_aborted = true;
                break;
            }
            unsigned effective_timeout_ms = options_.timeout_ms;
            if (options_.total_budget_ms > 0) {
                const double remaining_ms =
                    options_.total_budget_ms - MsSince(t_begin);
                effective_timeout_ms = std::min<unsigned>(
                    effective_timeout_ms,
                    static_cast<unsigned>(std::max(1.0, remaining_ms)));
            }

            std::vector<GatePairKey> round_pairs(encoded.begin(),
                                                 encoded.end());
            stats_.candidate_pairs = static_cast<int>(round_pairs.size());
            stats_.refinement_rounds = round;

            if (round_pairs.empty()) {
                if (!flow_starts) {
                    faults::MaybeInject("smt.solve");
                    {
                        telemetry::ScopedSpan solve_span("sched.xtalk.solve");
                        flow_starts = SolveLifetimeFlow(problem);
                    }
                    record_solve(round, omega, true, z3::sat, 0, 0,
                                 have_model);
                }
                starts = *flow_starts;
                stats_.gates_with_candidates = 0;
                stats_.optimal = true;
            } else {
                long long round_constraints = 0;
                int gates_with_candidates = 0;
                // Solve. Z3's exception type must not escape this
                // translation unit, and a modelless outcome must not
                // abort a caller that can degrade — both translate to
                // SolverFailure (or, when an earlier round already
                // produced a model, to using that model).
                faults::MaybeInject("smt.solve");
                z3::check_result result = z3::unknown;
                try {
                    std::unique_ptr<ColdRound> cold;
                    {
                        telemetry::ScopedSpan encode_span(
                            "sched.xtalk.encode");
                        if (!warm) {
                            ++stats_.solver_builds;
                            cold = std::make_unique<ColdRound>(
                                problem, round_pairs, omega,
                                effective_timeout_ms);
                        } else {
                            if (!session) {
                                session =
                                    std::make_unique<WarmSession>(problem);
                                stats_.solver_builds = 1;
                            }
                            if (!objective_set) {
                                if (multi) {
                                    // Promote pairs learned by earlier
                                    // candidates to permanent assertions
                                    // before opening this ω's scope.
                                    session->AssertPending(encoded);
                                    session->PushObjective(omega);
                                } else {
                                    session->Minimize(omega);
                                }
                                objective_set = true;
                            }
                            session->AssertPending(encoded);
                        }
                    }
                    {
                        // Span per solver round: the smt-solve node of
                        // the profiler cost tree, and
                        // span.sched.xtalk.solve.ms on the metrics side
                        // (the whole-schedule aggregate stays in
                        // sched.xtalk.solve_ms).
                        telemetry::ScopedSpan solve_span("sched.xtalk.solve");
                        if (warm) {
                            session->SetTimeout(effective_timeout_ms);
                            result = session->Check(&starts);
                            round_constraints = session->TakeNewConstraints();
                            for (GateId g : problem.eligible_gates) {
                                for (const auto& [i, j] : round_pairs) {
                                    if (i == g || j == g) {
                                        ++gates_with_candidates;
                                        break;
                                    }
                                }
                            }
                        } else {
                            result = cold->Check(&starts);
                            round_constraints = cold->num_constraints();
                            gates_with_candidates =
                                cold->gates_with_candidates();
                        }
                    }
                    stats_.gates_with_candidates = gates_with_candidates;
                    record_solve(round, omega, false, result,
                                 round_constraints, round_pairs.size(),
                                 have_model);
                    XTALK_REQUIRE(result != z3::unsat,
                                  "scheduling constraints are "
                                  "unsatisfiable (bug)");
                    stats_.optimal = (result == z3::sat);
                    if (result != z3::sat) {
                        // `unknown` means the search was cut off: any
                        // candidate model z3 holds is NOT guaranteed to
                        // satisfy even the hard constraints, so it must
                        // never become a schedule. Fall back to the last
                        // sat round's model, or report SolverFailure so
                        // the caller can degrade.
                        if (have_model) {
                            Warn("XtalkSched: solver returned unknown "
                                 "(timeout?); using the last satisfiable "
                                 "model");
                            break;
                        }
                        if (!results.empty()) {
                            Warn("XtalkSched: solver returned unknown "
                                 "mid-sweep; returning the solved "
                                 "candidates");
                            sweep_aborted = true;
                            break;
                        }
                        throw SolverFailure(
                            "XtalkSched: solver returned unknown "
                            "(timeout?) before any satisfiable model was "
                            "found");
                    }
                } catch (const z3::exception& e) {
                    telemetry::JournalEmit("sched.solve",
                                           {{"round", round},
                                            {"solver", "z3"},
                                            {"verdict", "exception"},
                                            {"error", std::string(e.msg())},
                                            {"have_model", have_model}});
                    if (have_model) {
                        Warn(std::string("XtalkSched: solver failed in "
                                         "refinement round (") +
                             e.msg() + "); using best known model");
                        break;
                    }
                    throw SolverFailure(
                        std::string("XtalkSched: solver produced no "
                                    "model: ") +
                        e.msg());
                }
            }
            have_model = true;
            model_pairs = std::move(round_pairs);

            // Lazy refinement: add any eligible-but-unencoded pair the
            // model overlaps, then re-solve. Converges quickly because
            // violations only occur when the solver shifted chains
            // across the layer window.
            std::vector<GatePairKey> violations;
            for (const XtalkProblem::Pair& pair : problem.eligible) {
                const GateId i = pair.i;
                const GateId j = pair.j;
                if (encoded.count({i, j})) {
                    continue;
                }
                const bool overlaps =
                    starts[j] < starts[i] + problem.duration[i] - 1e-9 &&
                    starts[i] < starts[j] + problem.duration[j] - 1e-9;
                if (overlaps) {
                    violations.push_back({i, j});
                }
            }
            if (violations.empty() || round >= kMaxRefinementRounds) {
                if (!violations.empty()) {
                    Warn("XtalkSched: refinement budget exhausted with " +
                         std::to_string(violations.size()) +
                         " unencoded overlaps remaining");
                }
                break;
            }
            if (round + 1 >= kMaxRefinementRounds) {
                // Escalate: pair-at-a-time refinement is thrashing (the
                // solver keeps finding fresh blind spots); encode the
                // whole eligible set for the final round.
                for (const XtalkProblem::Pair& pair : problem.eligible) {
                    encoded.insert({pair.i, pair.j});
                }
            } else {
                encoded.insert(violations.begin(), violations.end());
            }
        }
        if (objective_set && multi) {
            session->Pop();
        }
        if (!have_model) {
            break;  // sweep_aborted with prior results
        }

        // Only lifetime *differences* enter the objective, so the
        // solver may return an arbitrary global offset; shift the
        // earliest gate to 0.
        if (n > 0) {
            const double origin =
                *std::min_element(starts.begin(), starts.end());
            for (double& s : starts) {
                s = std::max(0.0, s - origin);
            }
        }
        OmegaSolveResult solved;
        solved.omega = omega;
        solved.schedule = ScheduledCircuit(circuit.num_qubits());
        for (GateId g = 0; g < n; ++g) {
            if (!circuit.gate(g).IsBarrier()) {
                solved.schedule.Add(circuit.gate(g), starts[g],
                                    problem.duration[g]);
            }
        }
        solved.start_ns = starts;
        solved.candidate_pairs = model_pairs;
        results.push_back(std::move(solved));
        ++stats_.omegas_solved;
    }

    XTALK_REQUIRE(!results.empty(),
                  "omega sweep ended with no solved candidate (bug)");
    last_start_times_ = results.back().start_ns;
    last_pairs_ = results.back().candidate_pairs;

    stats_.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_begin)
            .count();
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sched.xtalk.schedules").Add(1);
        telemetry::GetCounter("sched.xtalk.refinement_rounds")
            .Add(static_cast<uint64_t>(stats_.refinement_rounds));
        // Explicit bounds: SMT solves cluster in the 1ms-2min range, so
        // the sub-millisecond default buckets would pile everything
        // into a few cells and ruin the quantile estimates.
        telemetry::GetHistogram("sched.xtalk.solve_ms",
                                {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                                 200.0, 500.0, 1e3, 2e3, 5e3, 10e3, 20e3,
                                 60e3, 120e3})
            .Record(stats_.solve_seconds * 1e3);
    }
    return results;
}

Circuit
XtalkScheduler::ScheduleWithBarriers(const Circuit& circuit,
                                     ScheduledCircuit* schedule_out)
{
    const ScheduledCircuit schedule = Schedule(circuit);
    if (schedule_out) {
        *schedule_out = schedule;
    }
    return InsertOrderingBarriersForCircuit(circuit, last_start_times_,
                                            last_pairs_, *device_);
}

Circuit
InsertOrderingBarriersForCircuit(
    const Circuit& circuit, const std::vector<double>& start_ns,
    const std::vector<std::pair<GateId, GateId>>& candidate_pairs,
    const Device& device)
{
    const int n = circuit.size();
    XTALK_REQUIRE(static_cast<int>(start_ns.size()) == n,
                  "start times size mismatch");
    // Output order: by solver start time, stable on original index.
    std::vector<GateId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](GateId a, GateId b) {
        return start_ns[a] < start_ns[b];
    });
    std::vector<int> position_of(n);
    for (int pos = 0; pos < n; ++pos) {
        position_of[order[pos]] = pos;
    }

    // For every candidate pair the solver serialized, request a barrier
    // right before the later gate, covering both gates' qubits.
    std::map<int, std::set<QubitId>> barrier_before;
    for (const auto& [i, j] : candidate_pairs) {
        const double di =
            std::llround(device.GateDuration(circuit.gate(i)) * 100.0) /
            100.0;
        const double dj =
            std::llround(device.GateDuration(circuit.gate(j)) * 100.0) /
            100.0;
        const bool overlapping = start_ns[j] < start_ns[i] + di - 1e-9 &&
                                 start_ns[i] < start_ns[j] + dj - 1e-9;
        if (overlapping) {
            continue;  // Solver chose to run them concurrently.
        }
        const GateId later = start_ns[i] <= start_ns[j] ? j : i;
        auto& qubits = barrier_before[position_of[later]];
        qubits.insert(circuit.gate(i).qubits.begin(),
                      circuit.gate(i).qubits.end());
        qubits.insert(circuit.gate(j).qubits.begin(),
                      circuit.gate(j).qubits.end());
    }

    Circuit out(circuit.num_qubits());
    for (int pos = 0; pos < n; ++pos) {
        const auto it = barrier_before.find(pos);
        if (it != barrier_before.end()) {
            out.Barrier(std::vector<QubitId>(it->second.begin(),
                                             it->second.end()));
        }
        const Gate& g = circuit.gate(order[pos]);
        if (!g.IsBarrier()) {
            out.Add(g);
        }
    }
    return out;
}

}  // namespace xtalk
