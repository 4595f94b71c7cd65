/**
 * @file
 * Tests for the experiment drivers (src/experiments) plus regression
 * tests for the scheduler's encoding/refinement machinery that the
 * drivers exercise end to end.
 */
#include <gtest/gtest.h>

#include "device/ibmq_devices.h"
#include "experiments/experiments.h"
#include "scheduler/analysis.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"
#include "workloads/hidden_shift.h"
#include "workloads/qaoa.h"

namespace xtalk {
namespace {

TEST(Experiments, MeasuredQubitFlipsFollowClbitOrder)
{
    const Device device = MakePoughkeepsie();
    Circuit c(20);
    c.H(3).Measure(3, 1).Measure(7, 0);
    const auto flips = MeasuredQubitFlips(device, c);
    ASSERT_EQ(flips.size(), 2u);
    EXPECT_DOUBLE_EQ(flips[0], device.ReadoutError(7));
    EXPECT_DOUBLE_EQ(flips[1], device.ReadoutError(3));
}

TEST(Experiments, SwapExperimentIsDeterministicForSeed)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const SwapBenchmark bench = BuildSwapBenchmark(device, 15, 12);
    ParallelScheduler scheduler(device);
    const auto a = RunSwapExperiment(device, scheduler, bench, 128, 5);
    const auto b = RunSwapExperiment(device, scheduler, bench, 128, 5);
    EXPECT_DOUBLE_EQ(a.error_rate, b.error_rate);
    EXPECT_DOUBLE_EQ(a.duration_ns, b.duration_ns);
}

TEST(Experiments, ReadoutMitigationLowersSwapError)
{
    const Device device = MakePoughkeepsie();
    const SwapBenchmark bench = BuildSwapBenchmark(device, 0, 2);
    ParallelScheduler scheduler(device);
    const auto mitigated =
        RunSwapExperiment(device, scheduler, bench, 1024, 9, true);
    const auto raw =
        RunSwapExperiment(device, scheduler, bench, 1024, 9, false);
    EXPECT_LT(mitigated.error_rate, raw.error_rate);
}

TEST(Experiments, CrossEntropyAboveIdealFloor)
{
    const Device device = MakePoughkeepsie();
    const Circuit circuit = BuildQaoaCircuit(device, {0, 1, 2, 3});
    ParallelScheduler scheduler(device);
    const auto result =
        RunCrossEntropyExperiment(device, scheduler, circuit, 2048, 3);
    EXPECT_GT(result.cross_entropy, result.ideal_cross_entropy - 0.05);
    EXPECT_GT(result.ideal_cross_entropy, 0.0);
    EXPECT_GT(result.duration_ns, 0.0);
}

TEST(Experiments, HiddenShiftErrorNearZeroWithoutNoiseFloorInflation)
{
    // On a clean region with few gates the error should be small but
    // positive (gate noise exists).
    const Device device = MakePoughkeepsie();
    HiddenShiftOptions options;
    options.shift = 0b0101;
    const Circuit circuit =
        BuildHiddenShiftCircuit(device, {0, 1, 2, 3}, options);
    ParallelScheduler scheduler(device);
    const auto result = RunHiddenShiftExperiment(
        device, scheduler, circuit, HiddenShiftExpectedOutcome(options),
        4096, 7);
    EXPECT_GT(result.error_rate, 0.0);
    EXPECT_LT(result.error_rate, 0.35);
}

TEST(Experiments, CharacterizeDeviceHighOnlyMergesDailyData)
{
    const Device device = MakeLinearDevice(6, 3, /*with_crosstalk=*/true);
    RbConfig config = BenchRbConfig(5);
    config.sequences_per_length = 3;
    config.shots = 96;
    const auto merged = CharacterizeDevice(
        device, config, CharacterizationPolicy::kHighOnly, 5);
    // All couplers were touched by the full scan.
    for (EdgeId e = 0; e < device.topology().num_edges(); ++e) {
        EXPECT_TRUE(merged.HasIndependentError(e)) << "edge " << e;
    }
}

TEST(XtalkSchedulerRegression, EncodingsAgreeOnConflictCircuit)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit c(20);
    c.CX(10, 15).CX(11, 12).CX(13, 14).CX(18, 19);
    c.Measure(10, 0).Measure(11, 1);

    XtalkSchedulerOptions bound_options;
    XtalkScheduler bound(device, characterization, bound_options);
    const auto est_bound = EstimateScheduleError(
        bound.Schedule(c), device, characterization);

    XtalkSchedulerOptions powerset_options;
    powerset_options.use_powerset_encoding = true;
    XtalkScheduler powerset(device, characterization, powerset_options);
    const auto est_powerset = EstimateScheduleError(
        powerset.Schedule(c), device, characterization);

    EXPECT_NEAR(est_bound.Objective(0.5), est_powerset.Objective(0.5),
                1e-3);
    EXPECT_EQ(est_bound.crosstalk_overlaps, 0);
    EXPECT_EQ(est_powerset.crosstalk_overlaps, 0);
}

TEST(XtalkSchedulerRegression, LazyRefinementCatchesCrossLayerOverlaps)
{
    // Regression for the layer-window blind spot: with a tiny window the
    // redundant Hidden Shift circuit tempts the solver to shift whole
    // chains past the window; refinement must still eliminate all
    // high-crosstalk overlaps.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    HiddenShiftOptions options;
    options.redundant_cnots = true;
    const Circuit circuit =
        BuildHiddenShiftCircuit(device, {10, 15, 11, 12}, options);

    XtalkSchedulerOptions sched_options;
    sched_options.omega = 0.3;
    sched_options.max_layer_distance = 2;  // Deliberately tiny window.
    XtalkScheduler scheduler(device, characterization, sched_options);
    const ScheduledCircuit schedule = scheduler.Schedule(circuit);
    const auto estimate =
        EstimateScheduleError(schedule, device, characterization);
    EXPECT_EQ(estimate.crosstalk_overlaps, 0);
    EXPECT_GT(scheduler.stats().refinement_rounds, 0);
}

TEST(XtalkSchedulerRegression, RefinementNotNeededForShallowCircuits)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit c(20);
    c.CX(10, 15).CX(11, 12);
    c.Measure(10, 0).Measure(11, 1);
    XtalkScheduler scheduler(device, characterization);
    scheduler.Schedule(c);
    EXPECT_EQ(scheduler.stats().refinement_rounds, 0);
}

}  // namespace
}  // namespace xtalk
