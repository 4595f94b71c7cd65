/**
 * @file
 * Tests for scheduler portfolio racing (scheduler/portfolio.h): the
 * candidate-producing member interface, winner selection and tie-break,
 * thread-count-invariant (bit-identical) winners and outcomes, and
 * degradation reporting when the preferred member fails.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "characterization/characterizer.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "runtime/thread_pool.h"
#include "scheduler/anneal_scheduler.h"
#include "scheduler/portfolio.h"
#include "workloads/swap_circuits.h"

namespace xtalk {
namespace {

/** The paper's conflict scenario on Poughkeepsie: CX10,15 || CX11,12. */
Circuit
ConflictCircuit()
{
    Circuit c(20);
    c.CX(10, 15).CX(11, 12);
    c.Measure(10, 0).Measure(15, 1).Measure(11, 2).Measure(12, 3);
    return c;
}

std::vector<std::unique_ptr<PortfolioMember>>
MakeMembers(const std::vector<std::string>& keys,
            const PortfolioMemberOptions& options = {})
{
    std::vector<std::unique_ptr<PortfolioMember>> members;
    members.reserve(keys.size());
    for (const std::string& key : keys) {
        members.push_back(MakePortfolioMember(key, options));
    }
    return members;
}

TEST(PortfolioMembers, RegistryCoversEveryScheduler)
{
    std::vector<std::string> keys;
    for (const PortfolioMemberInfo& row : PortfolioRegistry()) {
        keys.push_back(row.key);
        const auto member = MakePortfolioMember(row.key);
        EXPECT_EQ(&member->info(), &row);
        EXPECT_EQ(member->key(), row.key);
        EXPECT_FALSE(member->display_name().empty());
        EXPECT_FALSE(row.description.empty());
        EXPECT_EQ(FindPortfolioMember(row.key), &row);
        EXPECT_TRUE(IsSchedulerPolicy(row.key));
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"serial", "parallel", "greedy",
                                              "anneal", "xtalk", "auto"}));
    EXPECT_TRUE(IsSchedulerPolicy(kPortfolioPolicy));
    EXPECT_FALSE(IsSchedulerPolicy("no-such-scheduler"));
    EXPECT_EQ(FindPortfolioMember("no-such-scheduler"), nullptr);
    EXPECT_THROW(MakePortfolioMember("no-such-scheduler"), Error);
}

TEST(PortfolioMembers, AutoWithoutOmegaCandidatesFailsWhenBuilt)
{
    // The misconfiguration surfaces when the member is built, not as a
    // race-time failure the backups would absorb.
    PortfolioMemberOptions options;
    options.omega_candidates.clear();
    EXPECT_THROW(MakePortfolioMember("auto", options), Error);
    for (const std::string key : {"xtalk", "greedy", "anneal"}) {
        EXPECT_NO_THROW(MakePortfolioMember(key, options)) << key;
    }
}

TEST(PortfolioMembers, LineupsFollowTheRegistryRows)
{
    // The SMT policies keep the legacy chain as prefer-first backups;
    // every other member races alone.
    for (const std::string key : {"xtalk", "auto"}) {
        const PortfolioLineup lineup = LineupFor(key);
        EXPECT_EQ(lineup.members,
                  (std::vector<std::string>{key, "greedy", "parallel"}));
        EXPECT_TRUE(lineup.prefer_first);
    }
    for (const std::string key : {"serial", "parallel", "greedy", "anneal"}) {
        const PortfolioLineup lineup = LineupFor(key, {"ignored"});
        EXPECT_EQ(lineup.members, std::vector<std::string>{key});
        EXPECT_FALSE(lineup.prefer_first);
    }
    const PortfolioLineup by_default = LineupFor(kPortfolioPolicy);
    EXPECT_EQ(by_default.members,
              (std::vector<std::string>{"xtalk", "anneal", "greedy",
                                        "parallel", "serial"}));
    EXPECT_EQ(by_default.members, DefaultPortfolio());
    EXPECT_FALSE(by_default.prefer_first);
    const PortfolioLineup chosen =
        LineupFor(kPortfolioPolicy, {"parallel", "serial"});
    EXPECT_EQ(chosen.members,
              (std::vector<std::string>{"parallel", "serial"}));
    EXPECT_FALSE(chosen.NeedsCharacterization());
    EXPECT_TRUE(by_default.NeedsCharacterization());
    EXPECT_THROW(LineupFor("no-such-scheduler"), Error);
}

TEST(Portfolio, WinnerIsBitIdenticalAtAnyThreadCount)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const Circuit circuit = ConflictCircuit();
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;

    std::string first_member;
    std::string first_schedule;
    int first_rank = -2;
    for (int threads : {1, 2, 8}) {
        SchedulerPortfolio portfolio(MakeMembers(
            {"xtalk", "anneal", "greedy", "parallel", "serial"}));
        PortfolioRunOptions run_options;
        run_options.pool =
            std::make_shared<runtime::ThreadPool>(threads);
        const PortfolioResult result =
            portfolio.Run(circuit, ctx, run_options);
        const std::string schedule = result.winner.schedule.ToString();
        if (first_member.empty()) {
            first_member = result.winner.member;
            first_schedule = schedule;
            first_rank = result.winner_rank;
        } else {
            EXPECT_EQ(result.winner.member, first_member)
                << "threads=" << threads;
            EXPECT_EQ(schedule, first_schedule) << "threads=" << threads;
            EXPECT_EQ(result.winner_rank, first_rank)
                << "threads=" << threads;
        }
        EXPECT_EQ(result.degradation, "none");
        EXPECT_EQ(result.outcomes.size(), 5u);
    }
}

TEST(Portfolio, RaceOutcomesDoNotDependOnThreadTiming)
{
    // On a Bell pair ParSched scores the crosstalk-free, wait-free
    // product, and XtalkSched's durations, rounded to 0.01 ns, score a
    // hair above it. Every raced member runs to completion, so the
    // verdict is the same however the pool interleaves the two.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit bell(20);
    bell.H(10).CX(10, 15).Measure(10, 0).Measure(15, 1);
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    SchedulerPortfolio portfolio(MakeMembers({"parallel", "xtalk"}));

    // The winner and every outcome's status, score and reason.
    const auto verdict = [](const PortfolioResult& result) {
        std::ostringstream oss;
        oss << std::setprecision(17) << "winner " << result.winner.member;
        for (const PortfolioMemberOutcome& outcome : result.outcomes) {
            oss << "\n" << outcome.member << " "
                << PortfolioOutcomeStatusName(outcome.status) << " "
                << outcome.has_score << " " << outcome.score << " '"
                << outcome.reason << "'";
        }
        return oss.str();
    };
    std::string first;
    for (int threads : {1, 2, 4}) {
        PortfolioRunOptions run_options;
        run_options.pool = std::make_shared<runtime::ThreadPool>(threads);
        for (int rep = 0; rep < 100; ++rep) {
            const PortfolioResult result =
                portfolio.Run(bell, ctx, run_options);
            const std::string current = verdict(result);
            if (first.empty()) {
                first = current;
            }
            ASSERT_EQ(current, first)
                << "threads=" << threads << " rep=" << rep;
            ASSERT_EQ(result.winner.member, "xtalk")
                << "threads=" << threads << " rep=" << rep;
        }
    }
}

TEST(Portfolio, ExactScoreTieGoesToTheEarlierRank)
{
    // One lone CX: serial and parallel schedules are identical, so the
    // scores tie exactly and the listing order must decide.
    const Device device = MakePoughkeepsie();
    Circuit circuit(20);
    circuit.CX(10, 15);
    circuit.Measure(10, 0).Measure(15, 1);
    PortfolioContext ctx;
    ctx.device = &device;

    SchedulerPortfolio serial_first(MakeMembers({"serial", "parallel"}));
    const PortfolioResult a = serial_first.Run(circuit, ctx);
    EXPECT_EQ(a.winner.member, "serial");
    EXPECT_EQ(a.winner_rank, 0);

    SchedulerPortfolio parallel_first(MakeMembers({"parallel", "serial"}));
    const PortfolioResult b = parallel_first.Run(circuit, ctx);
    EXPECT_EQ(b.winner.member, "parallel");
    EXPECT_EQ(b.winner_rank, 0);

    // Either order, the schedule itself is the same.
    EXPECT_EQ(a.winner.schedule.ToString(), b.winner.schedule.ToString());
}

TEST(Portfolio, RaceWinnerIsAtLeastAsGoodAsEveryStandaloneMember)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;

    // The paper's Figure 6/7 workload family: conflicting SWAP-chain
    // benchmarks, plus the canonical two-chain conflict circuit.
    std::vector<Circuit> circuits;
    circuits.push_back(ConflictCircuit());
    for (const auto& [a, b] :
         FindConflictingSwapPairs(device, characterization, 2)) {
        circuits.push_back(BuildSwapBenchmark(device, a, b).circuit);
    }
    ASSERT_GT(circuits.size(), 1u);

    const std::vector<std::string> keys = {"xtalk", "anneal", "greedy",
                                           "parallel", "serial"};
    for (const Circuit& circuit : circuits) {
        double best_single = 0.0;
        for (const std::string& key : keys) {
            SchedulerPortfolio solo(MakeMembers({key}));
            const PortfolioResult result = solo.Run(circuit, ctx);
            ASSERT_TRUE(result.outcomes.front().has_score);
            best_single = std::max(best_single,
                                   result.outcomes.front().score);
        }
        SchedulerPortfolio portfolio(MakeMembers(keys));
        const PortfolioResult raced = portfolio.Run(circuit, ctx);
        EXPECT_GE(raced.winner.estimate.success_probability,
                  best_single - 1e-12);
    }
}

TEST(Portfolio, PreferFirstDegradationReportsTheLostRace)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:n=1");
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    SchedulerPortfolio portfolio(
        MakeMembers({"xtalk", "greedy", "parallel"}));
    PortfolioRunOptions run_options;
    run_options.prefer_first = true;
    const PortfolioResult result =
        portfolio.Run(ConflictCircuit(), ctx, run_options);

    EXPECT_EQ(result.winner.member, "greedy");
    EXPECT_EQ(result.degradation, "greedy");
    EXPECT_NE(result.degradation_reason.find("smt.solve"),
              std::string::npos);
    ASSERT_GE(result.outcomes.size(), 2u);
    EXPECT_EQ(result.outcomes[0].member, "xtalk");
    EXPECT_EQ(result.outcomes[0].status,
              PortfolioMemberOutcome::Status::kFailed);
    EXPECT_FALSE(result.outcomes[0].reason.empty());
    EXPECT_EQ(result.outcomes[1].member, "greedy");
    EXPECT_EQ(result.outcomes[1].status,
              PortfolioMemberOutcome::Status::kWon);
}

TEST(Portfolio, PureRaceSurvivesSmtFaultWithoutDegradationStigma)
{
    // In a full race the SMT member failing is just a lost member; the
    // race degrades only when a member ranked BEFORE the winner failed.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:p=1");
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    SchedulerPortfolio portfolio(
        MakeMembers({"xtalk", "anneal", "greedy", "parallel", "serial"}));
    const PortfolioResult result = portfolio.Run(ConflictCircuit(), ctx);

    EXPECT_NE(result.winner.member, "xtalk");
    // xtalk ranks before every possible winner, so its failure marks
    // the result degraded, with the winner's key as the label.
    EXPECT_EQ(result.degradation, result.winner.member);
    EXPECT_NE(result.degradation_reason.find("smt.solve"),
              std::string::npos);
    const auto xtalk_outcome = std::find_if(
        result.outcomes.begin(), result.outcomes.end(),
        [](const PortfolioMemberOutcome& o) { return o.member == "xtalk"; });
    ASSERT_NE(xtalk_outcome, result.outcomes.end());
    EXPECT_EQ(xtalk_outcome->status,
              PortfolioMemberOutcome::Status::kFailed);
}

TEST(Portfolio, AnnealFaultSiteMakesTheMemberLose)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("sched.anneal:p=1");
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    SchedulerPortfolio portfolio(MakeMembers({"anneal", "parallel"}));
    const PortfolioResult result = portfolio.Run(ConflictCircuit(), ctx);
    EXPECT_EQ(result.winner.member, "parallel");
    EXPECT_EQ(result.degradation, "parallel");
    EXPECT_EQ(result.outcomes[0].status,
              PortfolioMemberOutcome::Status::kFailed);
}

TEST(Portfolio, InternalErrorIsNeverRacedAround)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:n=1,kind=internal");
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    SchedulerPortfolio portfolio(
        MakeMembers({"xtalk", "greedy", "parallel"}));
    EXPECT_THROW(portfolio.Run(ConflictCircuit(), ctx), InternalError);
}

TEST(Portfolio, AllMembersFailingRethrowsTheFirstError)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:p=1;sched.anneal:p=1");
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    SchedulerPortfolio portfolio(MakeMembers({"xtalk", "anneal"}));
    try {
        portfolio.Run(ConflictCircuit(), ctx);
        FAIL() << "expected the race to fail when every member fails";
    } catch (const InternalError&) {
        FAIL() << "transient faults must not be reported as bugs";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("smt.solve"),
                  std::string::npos);
    }
}

TEST(Portfolio, MembersWithoutCharacterizationRequireNone)
{
    const Device device = MakePoughkeepsie();
    PortfolioContext ctx;
    ctx.device = &device;  // characterization deliberately null
    SchedulerPortfolio portfolio(MakeMembers({"serial", "parallel"}));
    const PortfolioResult result = portfolio.Run(ConflictCircuit(), ctx);
    EXPECT_TRUE(result.winner.estimate.success_probability > 0.0);

    SchedulerPortfolio greedy(MakeMembers({"greedy"}));
    EXPECT_THROW(greedy.Run(ConflictCircuit(), ctx), Error);
}

TEST(AnnealScheduler, IsDeterministicAndRespectsDependencies)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    AnnealScheduler scheduler(device, characterization);
    const Circuit circuit = ConflictCircuit();
    const ScheduledCircuit a = scheduler.Schedule(circuit);
    const ScheduledCircuit b = scheduler.Schedule(circuit);
    EXPECT_EQ(a.ToString(), b.ToString());
    EXPECT_EQ(a.size(), circuit.size());
    EXPECT_GT(scheduler.stats().iterations_run, 0);
}

TEST(CompilerPortfolio, PortfolioPolicyCompilesAndReportsOutcomes)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilerOptions options;
    options.scheduler = kPortfolioPolicy;
    options.verify_passes = true;
    const CompileResult result =
        Compile(device, characterization, ConflictCircuit(), options);
    EXPECT_EQ(result.degradation, "none");
    EXPECT_EQ(result.portfolio.size(), 5u);
    const auto winner = std::find_if(
        result.portfolio.begin(), result.portfolio.end(),
        [](const PortfolioMemberOutcome& o) {
            return o.status == PortfolioMemberOutcome::Status::kWon;
        });
    ASSERT_NE(winner, result.portfolio.end());
    EXPECT_EQ(winner->scheduler_name, result.scheduler_name);
    // Every attempted member reports a score or a failure reason.
    for (const PortfolioMemberOutcome& outcome : result.portfolio) {
        EXPECT_TRUE(outcome.has_score || !outcome.reason.empty());
    }
}

TEST(CompilerPortfolio, ExplicitMemberListIsHonored)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilerOptions options;
    options.scheduler = kPortfolioPolicy;
    options.portfolio = {"anneal", "serial"};
    const CompileResult result =
        Compile(device, characterization, ConflictCircuit(), options);
    ASSERT_EQ(result.portfolio.size(), 2u);
    EXPECT_EQ(result.portfolio[0].member, "anneal");
    EXPECT_EQ(result.portfolio[1].member, "serial");
}

TEST(CompilerPortfolio, AnnealHonorsTheRequestedOmega)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    CompilerOptions options;
    options.scheduler = "anneal";
    options.xtalk.omega = 0.2;
    const CompileResult result =
        Compile(device, characterization, ConflictCircuit(), options);
    EXPECT_EQ(result.scheduler_name, "AnnealSched");
    ASSERT_TRUE(result.omega.has_value());
    EXPECT_EQ(*result.omega, 0.2);
}

TEST(Portfolio, LoneMemberRunsOnTheCallingThread)
{
    // A one-member lineup has nothing to race: it must not queue on the
    // pool behind other work. Occupy the pool's only worker, then run.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    PortfolioContext ctx;
    ctx.device = &device;
    ctx.characterization = &characterization;
    PortfolioRunOptions run_options;
    run_options.pool = std::make_shared<runtime::ThreadPool>(1);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::future<void> blocker = run_options.pool->Submit(
        [released] { released.wait_for(std::chrono::seconds(5)); });
    SchedulerPortfolio portfolio(MakeMembers({"greedy"}));
    const PortfolioResult result =
        portfolio.Run(ConflictCircuit(), ctx, run_options);
    const bool pool_still_busy =
        blocker.wait_for(std::chrono::seconds(0)) ==
        std::future_status::timeout;
    release.set_value();
    blocker.get();
    EXPECT_TRUE(pool_still_busy);
    EXPECT_EQ(result.winner.member, "greedy");
}

}  // namespace
}  // namespace xtalk
