#include "compiler/passes.h"

#include <memory>
#include <sstream>

#include "common/error.h"
#include "scheduler/portfolio.h"
#include "scheduler/scheduler.h"
#include "telemetry/telemetry.h"
#include "transpile/layout.h"
#include "transpile/routing.h"

namespace xtalk {

// -- LayoutPass ------------------------------------------------------------

std::string
LayoutPass::name() const
{
    if (!forced_) {
        return "layout";
    }
    return std::string("layout:") + LayoutPolicyName(*forced_);
}

std::string
LayoutPass::description() const
{
    if (!forced_) {
        return "initial placement with the policy from CompilerOptions";
    }
    if (*forced_ == LayoutPolicy::kTrivial) {
        return "trivial placement: logical i -> physical i";
    }
    return "greedy noise/crosstalk-aware placement";
}

void
LayoutPass::Run(CompilationState& state)
{
    const LayoutPolicy policy = forced_.value_or(state.options.layout);
    switch (policy) {
      case LayoutPolicy::kTrivial:
        state.initial_layout = TrivialLayout(state.logical);
        break;
      case LayoutPolicy::kNoiseAware:
        state.initial_layout = NoiseAwareLayout(
            state.device(), state.logical, &state.characterization(),
            state.options.layout_crosstalk_penalty);
        break;
    }
    std::ostringstream note;
    note << name() << ": placed " << state.initial_layout.size()
         << " logical qubits (" << LayoutPolicyName(policy) << ")";
    state.diagnostics.push_back(note.str());
}

// -- RoutingPass -----------------------------------------------------------

std::string
RoutingPass::description() const
{
    return "meet-in-the-middle SWAP routing onto the device topology";
}

void
RoutingPass::Run(CompilationState& state)
{
    XTALK_REQUIRE(!state.initial_layout.empty(),
                  "route requires an initial layout; run a layout pass "
                  "first");
    RoutingResult routed =
        RouteCircuit(state.device(), state.logical, state.initial_layout);
    state.final_layout = routed.final_layout;
    if (telemetry::Enabled()) {
        telemetry::GetCounter("compile.routed_gates")
            .Add(static_cast<uint64_t>(routed.circuit.size()));
    }
    std::ostringstream note;
    note << "route: " << state.logical.size() << " logical gates -> "
         << routed.circuit.size() << " hardware gates";
    state.diagnostics.push_back(note.str());
    state.routed = std::move(routed.circuit);
}

// -- SchedulePass ----------------------------------------------------------

std::string
SchedulePass::name() const
{
    return forced_ ? "schedule:" + *forced_ : "schedule";
}

std::string
SchedulePass::description() const
{
    if (!forced_) {
        return "scheduling with the policy from CompilerOptions";
    }
    if (*forced_ == kPortfolioPolicy) {
        return "race every portfolio member, keep the best candidate";
    }
    const PortfolioMemberInfo* row = FindPortfolioMember(*forced_);
    XTALK_REQUIRE(row != nullptr,
                  "unknown scheduler policy '" << *forced_ << "'");
    return row->display_name + ": " + row->description;
}

void
SchedulePass::Run(CompilationState& state)
{
    const Circuit& source = state.ScheduleSource();

    // Every policy is a portfolio run: a member key races that member
    // and its registry backups, "portfolio" the whole configured list.
    const PortfolioLineup lineup =
        LineupFor(forced_.value_or(state.options.scheduler),
                  state.options.portfolio);
    const PortfolioMemberOptions member_options{
        state.options.xtalk, state.options.omega_candidates};
    std::vector<std::unique_ptr<PortfolioMember>> members;
    members.reserve(lineup.members.size());
    for (const std::string& key : lineup.members) {
        members.push_back(MakePortfolioMember(key, member_options));
    }
    SchedulerPortfolio portfolio(std::move(members));

    PortfolioContext ctx;
    ctx.device = &state.device();
    ctx.characterization = &state.characterization();
    PortfolioRunOptions run_options;
    run_options.prefer_first = lineup.prefer_first;
    run_options.budget_ms = state.options.portfolio_budget_ms;
    PortfolioResult raced = portfolio.Run(source, ctx, run_options);

    state.schedule = std::move(raced.winner.schedule);
    if (!raced.winner.start_ns.empty()) {
        state.ordering =
            SolverOrderingArtifacts{std::move(raced.winner.start_ns),
                                    std::move(raced.winner.candidate_pairs)};
    } else {
        state.ordering.reset();
    }
    state.omega = raced.winner.omega;
    state.scheduler_name = raced.winner.scheduler_name;
    state.degradation = raced.degradation;
    state.degradation_reason = raced.degradation_reason;
    state.portfolio = std::move(raced.outcomes);
    if (state.degradation != "none") {
        if (telemetry::Enabled()) {
            telemetry::SetLabel("sched.degradation", state.degradation);
        }
        state.diagnostics.push_back("schedule: degraded to " +
                                    state.degradation + " (" +
                                    state.degradation_reason + ")");
    }

    std::ostringstream note;
    note << name() << ": " << state.scheduler_name << " makespan "
         << state.schedule->TotalDuration() << " ns";
    if (state.omega) {
        note << ", omega " << *state.omega;
    }
    state.diagnostics.push_back(note.str());
}

// -- BarrierLoweringPass ---------------------------------------------------

std::string
BarrierLoweringPass::description() const
{
    return "lower the schedule to a barriered executable circuit";
}

void
BarrierLoweringPass::Run(CompilationState& state)
{
    XTALK_REQUIRE(state.schedule.has_value(),
                  "lower-barriers requires a schedule; run a schedule "
                  "pass first");
    if (state.ordering) {
        state.executable = InsertOrderingBarriersForCircuit(
            state.ScheduleSource(), state.ordering->start_ns,
            state.ordering->candidate_pairs, state.device());
    } else {
        state.executable = state.schedule->ToCircuit();
    }
    std::ostringstream note;
    note << "lower-barriers: executable has " << state.executable->size()
         << " gates ("
         << state.executable->CountKind(GateKind::kBarrier)
         << " barriers)";
    state.diagnostics.push_back(note.str());
}

// -- EstimatePass ----------------------------------------------------------

std::string
EstimatePass::description() const
{
    return "modeled schedule quality under the characterized error model";
}

void
EstimatePass::Run(CompilationState& state)
{
    XTALK_REQUIRE(state.schedule.has_value(),
                  "estimate requires a schedule; run a schedule pass "
                  "first");
    state.estimate = EstimateScheduleError(*state.schedule, state.device(),
                                           state.characterization());
    std::ostringstream note;
    note << "estimate: modeled success "
         << state.estimate->success_probability << ", high-crosstalk "
         << "overlaps " << state.estimate->crosstalk_overlaps;
    state.diagnostics.push_back(note.str());
}

}  // namespace xtalk
