/**
 * @file
 * Tests for randomized benchmarking, simultaneous RB, bin packing, the
 * characterization policies, and the cost model. The key integration
 * property: RB estimates must recover the device's hidden error rates
 * within statistical tolerance, and SRB on a ground-truth high-crosstalk
 * pair must report conditional errors well above independent errors.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "characterization/binpack.h"
#include "characterization/characterizer.h"
#include "characterization/cost_model.h"
#include "characterization/rb.h"
#include "common/error.h"
#include "device/ibmq_devices.h"
#include "experiments/experiments.h"
#include "faults/faults.h"
#include "telemetry/ledger.h"

namespace xtalk {
namespace {

RbConfig
FastRbConfig(uint64_t seed = 99)
{
    RbConfig config;
    config.lengths = {1, 2, 4, 7, 12, 20, 30};
    config.sequences_per_length = 4;
    config.shots = 128;
    config.seed = seed;
    return config;
}

TEST(RbConfig, TotalExecutionsMultipliesBudget)
{
    RbConfig config;
    config.lengths = {1, 2, 3};
    config.sequences_per_length = 5;
    config.shots = 7;
    EXPECT_EQ(config.TotalExecutions(), 3 * 5 * 7);
}

TEST(RbRunner, SrbScheduleReturnsToGroundStateNoiselessly)
{
    const Device device = MakePoughkeepsie();
    RbRunner runner(device, FastRbConfig());
    Rng rng(5);
    const EdgeId e1 = device.topology().FindEdge(0, 1);
    const EdgeId e2 = device.topology().FindEdge(2, 3);
    const ScheduledCircuit schedule =
        runner.BuildSrbSchedule({e1, e2}, 6, rng);

    NoisySimOptions noiseless;
    noiseless.gate_noise = false;
    noiseless.decoherence = false;
    noiseless.readout_noise = false;
    NoisySimulator sim(device, noiseless);
    const Counts counts = sim.Run(schedule, RunSpec{64});
    EXPECT_EQ(counts.CountOf(0), 64)
        << "RB inverse must restore |0000> without noise";
}

TEST(RbRunner, SrbRejectsOverlappingCouplers)
{
    const Device device = MakePoughkeepsie();
    RbRunner runner(device, FastRbConfig());
    Rng rng(5);
    const EdgeId e1 = device.topology().FindEdge(0, 1);
    const EdgeId e2 = device.topology().FindEdge(1, 2);  // Shares qubit 1.
    EXPECT_THROW(runner.BuildSrbSchedule({e1, e2}, 4, rng), Error);
}

TEST(RbRunner, IndependentRbRecoversCnotErrorScale)
{
    const Device device = MakePoughkeepsie();
    const EdgeId edge = device.topology().FindEdge(5, 6);
    RbConfig config = FastRbConfig(7);
    config.sequences_per_length = 6;
    RbRunner runner(device, config);
    const RbResult result = runner.MeasureIndependent(edge);
    ASSERT_TRUE(result.ok);
    const double truth = device.CxError(edge);
    // RB folds in decoherence and 1q errors, so expect the right scale,
    // not an exact match: within [0.5x, 3x] of the injected CNOT error.
    EXPECT_GT(result.cnot_error, 0.5 * truth);
    EXPECT_LT(result.cnot_error, 3.0 * truth + 0.02);
}

TEST(RbRunner, SurvivalDecaysWithSequenceLength)
{
    const Device device = MakePoughkeepsie();
    const EdgeId edge = device.topology().FindEdge(5, 6);
    RbRunner runner(device, FastRbConfig(11));
    const RbResult result = runner.MeasureIndependent(edge);
    ASSERT_TRUE(result.ok);
    ASSERT_GE(result.survival.size(), 3u);
    EXPECT_GT(result.survival.front(), result.survival.back());
    EXPECT_GT(result.fit.p, 0.3);
    EXPECT_LT(result.fit.p, 1.0);
}

TEST(RbRunner, SrbDetectsHighCrosstalkPair)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    ASSERT_TRUE(device.IsHighCrosstalkPair(victim, aggressor));

    RbConfig config = FastRbConfig(13);
    config.sequences_per_length = 6;
    RbRunner runner(device, config);
    const RbResult independent = runner.MeasureIndependent(victim);
    const auto simultaneous = runner.MeasureSimultaneous({victim, aggressor});
    ASSERT_TRUE(independent.ok);
    ASSERT_TRUE(simultaneous[0].ok);
    // Ground truth factor is >= 4x; demand a clear separation (>= 2x).
    EXPECT_GT(simultaneous[0].cnot_error, 2.0 * independent.cnot_error);
}

TEST(RbRunner, SrbOnDistantPairsShowsNoCrosstalk)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId e1 = topo.FindEdge(0, 1);
    const EdgeId e2 = topo.FindEdge(17, 18);
    ASSERT_GT(topo.EdgeDistance(e1, e2), 2);

    RbConfig config = FastRbConfig(17);
    config.sequences_per_length = 6;
    RbRunner runner(device, config);
    const RbResult independent = runner.MeasureIndependent(e1);
    const auto simultaneous = runner.MeasureSimultaneous({e1, e2});
    ASSERT_TRUE(independent.ok && simultaneous[0].ok);
    EXPECT_LT(simultaneous[0].cnot_error, 2.0 * independent.cnot_error);
}

TEST(BinPack, CompatibilityRespectsSeparation)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const GatePair close{topo.FindEdge(0, 1), topo.FindEdge(2, 3)};
    const GatePair far{topo.FindEdge(16, 17), topo.FindEdge(18, 19)};
    const GatePair nearby{topo.FindEdge(5, 6), topo.FindEdge(7, 8)};
    EXPECT_TRUE(IsCompatibleWithBin(topo, far, {close}, 2));
    EXPECT_FALSE(IsCompatibleWithBin(topo, nearby, {close}, 2));
}

TEST(BinPack, AllPairsArePlacedExactlyOnce)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    auto pairs = topo.EdgePairsAtDistance(1);
    Rng rng(3);
    const auto bins = RandomizedFirstFitPack(topo, pairs, 2, 10, rng);
    size_t placed = 0;
    for (const auto& bin : bins) {
        placed += bin.size();
    }
    EXPECT_EQ(placed, pairs.size());
}

TEST(BinPack, PackingReducesBatchCount)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    auto pairs = topo.EdgePairsAtDistance(1);
    Rng rng(3);
    const auto bins = RandomizedFirstFitPack(topo, pairs, 2, 20, rng);
    // The paper reports ~2x reduction from bin packing.
    EXPECT_LT(bins.size(), pairs.size());
    EXPECT_LE(bins.size() * 3 / 2, pairs.size());
}

TEST(BinPack, BinsAreInternallyCompatible)
{
    const Device device = MakeBoeblingen();
    const Topology& topo = device.topology();
    Rng rng(3);
    const auto bins =
        RandomizedFirstFitPack(topo, topo.EdgePairsAtDistance(1), 2, 10, rng);
    for (const auto& bin : bins) {
        for (size_t i = 0; i < bin.size(); ++i) {
            ExperimentBin rest(bin.begin(), bin.begin() + i);
            EXPECT_TRUE(IsCompatibleWithBin(topo, bin[i], rest, 2));
        }
    }
}

TEST(Plan, PoughkeepsieAllPairsCountMatchesPaper)
{
    // The paper reports 221 simultaneous CNOT pairs for Poughkeepsie.
    const Device device = MakePoughkeepsie();
    Rng rng(1);
    const auto plan = BuildCharacterizationPlan(
        device.topology(), CharacterizationPolicy::kAllPairs, rng);
    EXPECT_EQ(plan.NumExperiments(), 221);
    EXPECT_EQ(plan.NumBatches(), 221);
}

TEST(Plan, OneHopIsMuchSmallerThanAllPairs)
{
    const Device device = MakePoughkeepsie();
    Rng rng(1);
    const auto all = BuildCharacterizationPlan(
        device.topology(), CharacterizationPolicy::kAllPairs, rng);
    const auto one_hop = BuildCharacterizationPlan(
        device.topology(), CharacterizationPolicy::kOneHop, rng);
    // Paper: Opt 1 gives ~5x reduction.
    EXPECT_LT(one_hop.NumExperiments() * 3, all.NumExperiments());
}

TEST(Plan, HighOnlyRequiresKnownPairs)
{
    const Device device = MakePoughkeepsie();
    Rng rng(1);
    EXPECT_THROW(
        BuildCharacterizationPlan(device.topology(),
                                  CharacterizationPolicy::kHighOnly, rng),
        Error);
}

TEST(Characterization, ConditionalFallsBackToIndependent)
{
    CrosstalkCharacterization c;
    c.SetIndependentError(3, 0.01);
    EXPECT_DOUBLE_EQ(c.ConditionalError(3, 7), 0.01);
    c.SetConditionalError(3, 7, 0.09);
    EXPECT_DOUBLE_EQ(c.ConditionalError(3, 7), 0.09);
    EXPECT_THROW(c.ConditionalError(4, 7), Error);
}

TEST(Characterization, HighPairsUseThreshold)
{
    CrosstalkCharacterization c;
    c.SetIndependentError(0, 0.01);
    c.SetIndependentError(1, 0.01);
    c.SetConditionalError(0, 1, 0.05);   // 5x -> high.
    c.SetConditionalError(1, 0, 0.015);  // 1.5x -> not high.
    const auto high = c.HighCrosstalkPairs(3.0);
    ASSERT_EQ(high.size(), 1u);
    EXPECT_EQ(high[0], (GatePair{0, 1}));
    EXPECT_TRUE(c.HighCrosstalkPairs(10.0).empty());
}

TEST(Characterizer, DiscoversInjectedHighCrosstalkPair)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);

    CharacterizationPlan plan;
    plan.policy = CharacterizationPolicy::kOneHop;
    plan.batches = {{{victim, aggressor}}};

    RbConfig config = FastRbConfig(23);
    config.sequences_per_length = 6;
    CrosstalkCharacterizer characterizer(
        device, CharacterizerConfig{.rb = config});
    const CrosstalkCharacterization result = characterizer.Run(plan);

    ASSERT_TRUE(result.HasIndependentError(victim));
    ASSERT_TRUE(result.HasConditionalError(victim, aggressor));
    EXPECT_GT(result.ConditionalError(victim, aggressor),
              2.0 * result.IndependentError(victim));
    const auto high = result.HighCrosstalkPairs(2.0);
    EXPECT_FALSE(high.empty());
}

TEST(Characterizer, PinnedSnapshotIds)
{
    // Every SRB sequence, job seed and shot of a bin-packed
    // characterization and of one interleaved RB is pinned by hash, at
    // one worker and at four: a change to how sequences are drawn,
    // built or submitted that moves a single count moves one of these.
    const Device device = MakeLinearDevice(6, 3, /*with_crosstalk=*/true);
    RbConfig config = BenchRbConfig(5);
    config.sequences_per_length = 3;
    config.shots = 96;
    for (const int threads : {1, 4}) {
        runtime::ExecutorOptions exec;
        exec.num_threads = threads;
        Rng rng(17);
        const auto plan = BuildCharacterizationPlan(
            device.topology(), CharacterizationPolicy::kOneHopBinPacked,
            rng);
        CrosstalkCharacterizer characterizer(
            device, CharacterizerConfig{.rb = config, .exec = exec});
        EXPECT_EQ(characterizer.Run(plan).SnapshotId(), "e1bd8dc77750b9f4")
            << threads << " threads";

        RbRunner runner(device, config, exec);
        const InterleavedRbResult result = runner.MeasureInterleaved(0);
        std::ostringstream text;
        text.precision(17);
        for (const RbResult* r : {&result.standard, &result.interleaved}) {
            text << r->fit.a << " " << r->fit.p << " " << r->fit.b << " "
                 << r->fit.sse << "\n";
        }
        text << result.gate_error << "\n";
        EXPECT_EQ(telemetry::FnvHex(text.str()), "492df365e8573bba")
            << threads << " threads";
    }
}

TEST(CharacterizerResilience, RetriedExperimentIsBitIdenticalToFaultFree)
{
    const Device device = MakePoughkeepsie();
    const EdgeId e1 = device.topology().FindEdge(0, 1);
    const EdgeId e2 = device.topology().FindEdge(2, 3);

    CrosstalkCharacterizer baseline(
        device, CharacterizerConfig{.rb = FastRbConfig(41)});
    const auto clean = baseline.MeasureIndependent({e1, e2});

    // Exactly one job fails once; the experiment is resubmitted with
    // identical seeds, so the retried run must be bit-identical.
    faults::ScopedFaultPlan scoped("srb.run:n=1");
    CharacterizationRunReport report;
    CrosstalkCharacterizer characterizer(
        device, CharacterizerConfig{.rb = FastRbConfig(41)});
    const auto retried =
        characterizer.MeasureIndependent({e1, e2}, &report);

    EXPECT_EQ(report.retried_experiments, 1);
    EXPECT_GE(report.failed_jobs, 1);
    EXPECT_GE(report.retry_rounds, 1);
    EXPECT_TRUE(report.quarantined_edges.empty());
    EXPECT_EQ(retried.independent_entries(), clean.independent_entries());
}

TEST(CharacterizerResilience, PersistentFaultQuarantinesButCompletes)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    CharacterizationPlan plan;
    plan.policy = CharacterizationPolicy::kOneHop;
    plan.batches = {{{victim, aggressor}}};

    faults::ScopedFaultPlan scoped("srb.run:p=1");
    CharacterizationRunReport report;
    CrosstalkCharacterizer characterizer(
        device, CharacterizerConfig{.rb = FastRbConfig(23)});
    const auto result = characterizer.Run(plan, &report);

    // Every attempt of every experiment failed: nothing measured,
    // everything quarantined, and the sweep still returned normally.
    EXPECT_TRUE(result.independent_entries().empty());
    EXPECT_TRUE(result.conditional_entries().empty());
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(report.quarantined_edges.size(), 2u);
    ASSERT_EQ(report.quarantined_pairs.size(), 1u);
    EXPECT_EQ(report.quarantined_pairs[0], (GatePair{victim, aggressor}));
    EXPECT_GT(report.failed_jobs, 0);
}

TEST(CharacterizerResilience, TenPercentFaultSweepCompletes)
{
    // The issue's acceptance scenario: a 10% per-job fault rate. Each
    // planned measurement must end up either measured or explicitly
    // quarantined — never silently missing — and the sweep completes.
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    CharacterizationPlan plan;
    plan.policy = CharacterizationPolicy::kOneHop;
    plan.batches = {{{victim, aggressor}}};

    faults::ScopedFaultPlan scoped("srb.run:p=0.1;seed=7");
    CharacterizationRunReport report;
    CrosstalkCharacterizer characterizer(
        device, CharacterizerConfig{.rb = FastRbConfig(23)});
    const auto result = characterizer.Run(plan, &report);

    EXPECT_GT(report.failed_jobs, 0);
    for (const EdgeId e : {victim, aggressor}) {
        const bool quarantined =
            std::find(report.quarantined_edges.begin(),
                      report.quarantined_edges.end(),
                      e) != report.quarantined_edges.end();
        EXPECT_NE(result.HasIndependentError(e), quarantined);
    }
    const bool pair_measured =
        result.HasConditionalError(victim, aggressor);
    const bool pair_quarantined =
        std::find(report.quarantined_pairs.begin(),
                  report.quarantined_pairs.end(),
                  GatePair{victim, aggressor}) !=
        report.quarantined_pairs.end();
    EXPECT_NE(pair_measured, pair_quarantined);
}

TEST(CostModel, PaperScaleAllPairsTakesRoughly8Hours)
{
    const Device device = MakePoughkeepsie();
    Rng rng(1);
    const auto plan = BuildCharacterizationPlan(
        device.topology(), CharacterizationPolicy::kAllPairs, rng);
    CharacterizationCostModel model;
    const double hours = model.EstimateHours(plan, PaperScaleRbConfig());
    EXPECT_GT(hours, 6.0);
    EXPECT_LT(hours, 10.0);
}

TEST(CostModel, OptimizationsReduceTimeMonotonically)
{
    const Device device = MakePoughkeepsie();
    Rng rng(1);
    const Topology& topo = device.topology();
    const auto all = BuildCharacterizationPlan(
        topo, CharacterizationPolicy::kAllPairs, rng);
    const auto one_hop =
        BuildCharacterizationPlan(topo, CharacterizationPolicy::kOneHop, rng);
    const auto packed = BuildCharacterizationPlan(
        topo, CharacterizationPolicy::kOneHopBinPacked, rng);
    // Use the device ground truth as the "previously discovered" set.
    std::vector<GatePair> high = device.ground_truth().HighCrosstalkPairs();
    const auto high_only = BuildCharacterizationPlan(
        topo, CharacterizationPolicy::kHighOnly, rng, high);

    CharacterizationCostModel model;
    const RbConfig config = PaperScaleRbConfig();
    const double t_all = model.EstimateSeconds(all, config);
    const double t_one = model.EstimateSeconds(one_hop, config);
    const double t_packed = model.EstimateSeconds(packed, config);
    const double t_high = model.EstimateSeconds(high_only, config);
    EXPECT_GT(t_all, t_one);
    EXPECT_GT(t_one, t_packed);
    EXPECT_GT(t_packed, t_high);
    // Paper: full optimization stack lands under 15 minutes.
    EXPECT_LT(t_high, 15.0 * 60.0);
    // Paper: 35-73x total reduction in experiments across devices.
    EXPECT_GT(t_all / t_high, 20.0);
}

}  // namespace
}  // namespace xtalk
