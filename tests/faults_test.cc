/**
 * @file
 * Tests for the fault-injection registry (faults/faults.h) and the
 * bounded-retry machinery (common/retry.h): plan grammar, trigger
 * semantics, determinism of probability draws, the error-kind contract
 * (InjectedFault vs InternalError), and the retry budget.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/retry.h"
#include "faults/faults.h"

namespace xtalk {
namespace {

using faults::FaultKind;
using faults::FaultPlan;
using faults::InjectedFault;
using faults::ScopedFaultPlan;

// -- Plan grammar ----------------------------------------------------------

TEST(FaultPlan, ParsesRulesAndSeed)
{
    const FaultPlan plan =
        FaultPlan::Parse("srb.run:p=0.1;smt.solve:n=1;seed=7");
    EXPECT_EQ(plan.seed, 7u);
    ASSERT_EQ(plan.rules.size(), 2u);
    EXPECT_EQ(plan.rules[0].site, "srb.run");
    EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.1);
    EXPECT_EQ(plan.rules[1].site, "smt.solve");
    EXPECT_EQ(plan.rules[1].nth, 1u);
    EXPECT_EQ(plan.rules[1].kind, FaultKind::kError);
}

TEST(FaultPlan, ParsesMultiTriggerRule)
{
    const FaultPlan plan =
        FaultPlan::Parse("executor.chunk:p=0.5,limit=2,kind=internal");
    ASSERT_EQ(plan.rules.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.5);
    EXPECT_EQ(plan.rules[0].limit, 2u);
    EXPECT_EQ(plan.rules[0].kind, FaultKind::kInternal);
}

TEST(FaultPlan, RoundTripsThroughToString)
{
    const std::string text =
        "srb.run:p=0.25;io.load:n=3,limit=1;smt.solve:n=1,kind=internal;"
        "seed=99";
    const FaultPlan plan = FaultPlan::Parse(text);
    const FaultPlan reparsed = FaultPlan::Parse(plan.ToString());
    EXPECT_EQ(reparsed.seed, plan.seed);
    ASSERT_EQ(reparsed.rules.size(), plan.rules.size());
    for (size_t i = 0; i < plan.rules.size(); ++i) {
        EXPECT_EQ(reparsed.rules[i].site, plan.rules[i].site);
        EXPECT_DOUBLE_EQ(reparsed.rules[i].probability,
                         plan.rules[i].probability);
        EXPECT_EQ(reparsed.rules[i].nth, plan.rules[i].nth);
        EXPECT_EQ(reparsed.rules[i].limit, plan.rules[i].limit);
        EXPECT_EQ(reparsed.rules[i].kind, plan.rules[i].kind);
    }
}

TEST(FaultPlan, RejectsMalformedInput)
{
    EXPECT_THROW(FaultPlan::Parse("no-colon-rule"), Error);
    EXPECT_THROW(FaultPlan::Parse("site:"), Error);
    EXPECT_THROW(FaultPlan::Parse("site:p=1.5"), Error);
    EXPECT_THROW(FaultPlan::Parse("site:p=banana"), Error);
    EXPECT_THROW(FaultPlan::Parse("site:n=0"), Error);
    EXPECT_THROW(FaultPlan::Parse("site:kind=weird"), Error);
    EXPECT_THROW(FaultPlan::Parse("site:frequency=2"), Error);
    // A rule armed by neither p= nor n= never fires; reject it.
    EXPECT_THROW(FaultPlan::Parse("site:limit=3"), Error);
    EXPECT_THROW(FaultPlan::Parse("seed=-4"), Error);
}

// Every malformed plan must surface as a structured Error whose
// diagnostic names the fault plan — never a crash, never InternalError
// (a bad plan is user input, not a library bug).
TEST(FaultPlan, RejectionTable)
{
    struct Case {
        const char* plan;
        const char* why;
    };
    const Case cases[] = {
        {"", "empty plan parses to no rules but installing is pointless"},
        {":p=0.5", "missing site name before the colon"},
        {"srb.run", "rule with no trigger list at all"},
        {"srb.run:", "rule with an empty trigger list"},
        {"srb.run:p", "trigger with no '='"},
        {"srb.run:p=", "empty probability"},
        {"srb.run:p=2.0", "probability above 1"},
        {"srb.run:p=-0.1", "negative probability"},
        {"srb.run:p=nan", "non-finite probability"},
        {"srb.run:n=0", "n= is 1-based"},
        {"srb.run:n=99999999999999999999999", "overflow call number"},
        {"srb.run:limit=99999999999999999999999", "overflow fire limit"},
        {"srb.run:limit=2", "limit without an arming trigger"},
        {"srb.run:kind=error", "kind without an arming trigger"},
        {"srb.run:kind=fatal", "unknown kind"},
        {"srb.run:frequency=2", "unknown trigger key"},
        {"seed=abc", "non-numeric seed"},
        {"seed=-4", "negative seed"},
        {"seed=99999999999999999999999", "overflow seed"},
        {"seed=1;seed=2", "duplicate seed"},
        {"srb.run:n=1;seed=1;seed=1", "duplicate seed even when equal"},
    };
    for (const Case& c : cases) {
        if (std::string(c.plan).empty()) {
            // The empty plan is the documented "no rules" case, not an
            // error; pin that behavior here instead.
            EXPECT_TRUE(FaultPlan::Parse("").rules.empty());
            continue;
        }
        try {
            (void)FaultPlan::Parse(c.plan);
            FAIL() << "plan '" << c.plan << "' (" << c.why
                   << ") was accepted";
        } catch (const InternalError&) {
            FAIL() << "plan '" << c.plan << "' (" << c.why
                   << ") raised InternalError instead of Error";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("fault plan"),
                      std::string::npos)
                << "plan '" << c.plan
                << "' diagnostic does not name the fault plan: "
                << e.what();
        }
    }
}

TEST(FaultPlan, DuplicateSeedIsRejectedButDistinctRulesAreNot)
{
    // Same *site* twice is legal (later overrides earlier at install
    // time); only seed= is single-shot.
    const FaultPlan plan =
        FaultPlan::Parse("srb.run:n=1;srb.run:n=2;seed=5");
    EXPECT_EQ(plan.rules.size(), 2u);
    EXPECT_THROW(FaultPlan::Parse("seed=5;srb.run:n=1;seed=5"), Error);
}

TEST(FaultPlan, EmptyAndWhitespaceItemsAreIgnored)
{
    const FaultPlan plan = FaultPlan::Parse(" ; srb.run:n=1 ; ;seed=3");
    EXPECT_EQ(plan.seed, 3u);
    ASSERT_EQ(plan.rules.size(), 1u);
    EXPECT_EQ(plan.rules[0].site, "srb.run");
}

// -- Trigger semantics -----------------------------------------------------

TEST(FaultInjection, UnplannedSiteIsInert)
{
    ScopedFaultPlan scoped("some.other.site:n=1");
    for (int i = 0; i < 100; ++i) {
        EXPECT_NO_THROW(faults::MaybeInject("faults_test.inert"));
    }
    EXPECT_EQ(faults::InjectedCount("faults_test.inert"), 0u);
}

TEST(FaultInjection, NthCallFiresExactlyOnce)
{
    ScopedFaultPlan scoped("faults_test.nth:n=3");
    EXPECT_NO_THROW(faults::MaybeInject("faults_test.nth"));
    EXPECT_NO_THROW(faults::MaybeInject("faults_test.nth"));
    EXPECT_THROW(faults::MaybeInject("faults_test.nth"), InjectedFault);
    for (int i = 0; i < 20; ++i) {
        EXPECT_NO_THROW(faults::MaybeInject("faults_test.nth"));
    }
    EXPECT_EQ(faults::InjectedCount("faults_test.nth"), 1u);
}

TEST(FaultInjection, InstallPlanResetsCounters)
{
    ScopedFaultPlan scoped("faults_test.reset:n=1");
    EXPECT_THROW(faults::MaybeInject("faults_test.reset"), InjectedFault);
    // Reinstalling rearms the n=1 trigger from call zero.
    faults::InstallPlan(FaultPlan::Parse("faults_test.reset:n=1"));
    EXPECT_THROW(faults::MaybeInject("faults_test.reset"), InjectedFault);
}

TEST(FaultInjection, ProbabilityIsDeterministicPerIdentity)
{
    const std::string plan = "faults_test.prob:p=0.5;seed=1234";
    std::vector<bool> first_pass;
    {
        ScopedFaultPlan scoped(plan);
        for (uint64_t id = 0; id < 64; ++id) {
            bool fired = false;
            try {
                faults::MaybeInject("faults_test.prob", id);
            } catch (const InjectedFault&) {
                fired = true;
            }
            first_pass.push_back(fired);
        }
    }
    // Same plan, same identities, any order: identical decisions.
    {
        ScopedFaultPlan scoped(plan);
        for (uint64_t id = 64; id-- > 0;) {
            bool fired = false;
            try {
                faults::MaybeInject("faults_test.prob", id);
            } catch (const InjectedFault&) {
                fired = true;
            }
            EXPECT_EQ(fired, first_pass[id]) << "identity " << id;
        }
    }
    // p=0.5 over 64 identities: both outcomes must occur.
    EXPECT_NE(std::count(first_pass.begin(), first_pass.end(), true), 0);
    EXPECT_NE(std::count(first_pass.begin(), first_pass.end(), true), 64);
}

TEST(FaultInjection, RetryOfSameIdentityDrawsIndependently)
{
    // p is high enough that some identity fires on the first attempt;
    // repeated attempts of one identity must not repeat the decision
    // forever (the per-identity attempt counter advances the draw).
    ScopedFaultPlan scoped("faults_test.retry:p=0.6;seed=42");
    uint64_t faulty_id = UINT64_MAX;
    for (uint64_t id = 0; id < 64; ++id) {
        try {
            faults::MaybeInject("faults_test.retry", id);
        } catch (const InjectedFault&) {
            faulty_id = id;
            break;
        }
    }
    ASSERT_NE(faulty_id, UINT64_MAX) << "p=0.6 never fired in 64 draws";
    // With p=0.6, P(20 more failures in a row) = 0.6^20 ~ 3.7e-5.
    bool recovered = false;
    for (int attempt = 0; attempt < 20; ++attempt) {
        try {
            faults::MaybeInject("faults_test.retry", faulty_id);
            recovered = true;
            break;
        } catch (const InjectedFault&) {
        }
    }
    EXPECT_TRUE(recovered);
}

TEST(FaultInjection, DifferentPlanSeedsChangeDecisions)
{
    auto decisions = [](const std::string& plan) {
        ScopedFaultPlan scoped(plan);
        std::vector<bool> fired;
        for (uint64_t id = 0; id < 128; ++id) {
            bool f = false;
            try {
                faults::MaybeInject("faults_test.seed", id);
            } catch (const InjectedFault&) {
                f = true;
            }
            fired.push_back(f);
        }
        return fired;
    };
    EXPECT_NE(decisions("faults_test.seed:p=0.5;seed=1"),
              decisions("faults_test.seed:p=0.5;seed=2"));
}

TEST(FaultInjection, LimitStopsFiring)
{
    ScopedFaultPlan scoped("faults_test.limit:p=1,limit=2");
    EXPECT_THROW(faults::MaybeInject("faults_test.limit"), InjectedFault);
    EXPECT_THROW(faults::MaybeInject("faults_test.limit"), InjectedFault);
    for (int i = 0; i < 10; ++i) {
        EXPECT_NO_THROW(faults::MaybeInject("faults_test.limit"));
    }
    EXPECT_EQ(faults::InjectedCount("faults_test.limit"), 2u);
}

TEST(FaultInjection, InternalKindThrowsInternalError)
{
    ScopedFaultPlan scoped("faults_test.bug:n=1,kind=internal");
    EXPECT_THROW(faults::MaybeInject("faults_test.bug"), InternalError);
}

TEST(FaultInjection, InjectedFaultCarriesSiteAndIsAnError)
{
    ScopedFaultPlan scoped("faults_test.site:n=1");
    try {
        faults::MaybeInject("faults_test.site");
        FAIL() << "expected throw";
    } catch (const InjectedFault& e) {
        EXPECT_EQ(e.site(), "faults_test.site");
        EXPECT_NE(std::string(e.what()).find("faults_test.site"),
                  std::string::npos);
        const Error* as_error = &e;  // Transient faults are user-facing.
        EXPECT_NE(as_error, nullptr);
    }
}

TEST(FaultInjection, ScopedPlanRestoresPreviousPlan)
{
    ScopedFaultPlan outer("faults_test.outer:n=1");
    {
        ScopedFaultPlan inner("faults_test.inner:n=1");
        EXPECT_NO_THROW(faults::MaybeInject("faults_test.outer"));
        EXPECT_THROW(faults::MaybeInject("faults_test.inner"),
                     InjectedFault);
    }
    // Back to the outer plan: its n=1 trigger is re-armed (reinstall
    // resets counters) and the inner site is inert again.
    EXPECT_NO_THROW(faults::MaybeInject("faults_test.inner"));
    EXPECT_THROW(faults::MaybeInject("faults_test.outer"), InjectedFault);
}

// -- RetryCall -------------------------------------------------------------

TEST(RetryCall, SucceedsAfterTransientFailures)
{
    int calls = 0;
    RetryStats stats;
    const bool ok = RetryCall(
        [&] {
            if (++calls < 3) {
                throw Error("transient");
            }
        },
        &stats);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(stats.succeeded);
    EXPECT_EQ(stats.attempts, 3);
    EXPECT_EQ(calls, 3);
}

TEST(RetryCall, ExhaustionReturnsFalseWithStats)
{
    RetryStats stats;
    const bool ok =
        RetryCall([] { throw Error("always down"); }, &stats);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(stats.succeeded);
    EXPECT_EQ(stats.attempts, kMaxAttempts);
    EXPECT_NE(stats.last_error.find("always down"), std::string::npos);
}

TEST(RetryCall, ExhaustionWithoutStatsRethrows)
{
    EXPECT_THROW(RetryCall([] { throw Error("always down"); }), Error);
}

TEST(RetryCall, InternalErrorIsNeverRetried)
{
    int calls = 0;
    RetryStats stats;  // Even with stats, a bug must propagate.
    EXPECT_THROW(RetryCall(
                     [&] {
                         ++calls;
                         throw InternalError("bug");
                     },
                     &stats),
                 InternalError);
    EXPECT_EQ(calls, 1);
}

TEST(RetryCall, InjectedInternalFaultPropagatesThroughRetry)
{
    ScopedFaultPlan scoped("faults_test.retrybug:p=1,kind=internal");
    int calls = 0;
    EXPECT_THROW(RetryCall([&] {
                     ++calls;
                     faults::MaybeInject("faults_test.retrybug");
                 }),
                 InternalError);
    EXPECT_EQ(calls, 1);
}

TEST(RetryCall, InjectedTransientFaultClearsWithinBudget)
{
    // n=1 models a one-off transient blip: the first call fails, the
    // retry succeeds. This is the exact shape the io.load site uses.
    ScopedFaultPlan scoped("faults_test.blip:n=1");
    RetryStats stats;
    const bool ok =
        RetryCall([] { faults::MaybeInject("faults_test.blip"); }, &stats);
    EXPECT_TRUE(ok);
    EXPECT_EQ(stats.attempts, 2);
    EXPECT_EQ(faults::InjectedCount("faults_test.blip"), 1u);
}

}  // namespace
}  // namespace xtalk
