/**
 * @file
 * Tests for the three schedulers (SerialSched, ParSched, XtalkSched),
 * the greedy ablation, the schedule error model, and barrier insertion.
 * The central scenario mirrors the paper's Figure 1/6: two parallel
 * high-crosstalk CNOT chains that XtalkSched must serialize while
 * keeping everything else parallel.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "characterization/characterizer.h"
#include "circuit/dag.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "scheduler/analysis.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"
#include "telemetry/telemetry.h"

namespace xtalk {
namespace {

/** Characterization oracle built directly from ground truth (tests only:
 * stands in for a perfect characterization run). */
CrosstalkCharacterization
OracleCharacterization(const Device& device)
{
    CrosstalkCharacterization c;
    const Topology& topo = device.topology();
    for (EdgeId e = 0; e < topo.num_edges(); ++e) {
        c.SetIndependentError(e, device.CxError(e));
    }
    for (const auto& [pair, factor] : device.ground_truth().entries()) {
        (void)factor;
        c.SetConditionalError(
            pair.first, pair.second,
            device.ConditionalCxError(pair.first, pair.second));
    }
    return c;
}

/** The paper's conflict scenario on Poughkeepsie: CX10,15 || CX11,12. */
Circuit
ConflictCircuit()
{
    Circuit c(20);
    c.CX(10, 15).CX(11, 12);
    c.Measure(10, 0).Measure(15, 1).Measure(11, 2).Measure(12, 3);
    return c;
}

bool
GatesOverlap(const ScheduledCircuit& s, const Gate& a, const Gate& b)
{
    int ia = -1, ib = -1;
    for (int i = 0; i < s.size(); ++i) {
        if (s.gates()[i].gate == a) {
            ia = i;
        }
        if (s.gates()[i].gate == b) {
            ib = i;
        }
    }
    XTALK_REQUIRE(ia >= 0 && ib >= 0, "gate not found in schedule");
    return TimedGate::Overlaps(s.gates()[ia], s.gates()[ib]);
}

TEST(SerialScheduler, EveryGateHasItsOwnSlot)
{
    const Device device = MakeLinearDevice(4, 3);
    Circuit c(4);
    c.H(0).CX(0, 1).CX(2, 3).H(2);
    SerialScheduler scheduler(device);
    const ScheduledCircuit s = scheduler.Schedule(c);
    for (int i = 0; i < s.size(); ++i) {
        for (int j = i + 1; j < s.size(); ++j) {
            EXPECT_FALSE(TimedGate::Overlaps(s.gates()[i], s.gates()[j]))
                << i << " vs " << j;
        }
    }
}

TEST(ParallelScheduler, IndependentGatesOverlap)
{
    const Device device = MakeLinearDevice(4, 3);
    Circuit c(4);
    c.CX(0, 1).CX(2, 3);
    ParallelScheduler scheduler(device);
    const ScheduledCircuit s = scheduler.Schedule(c);
    EXPECT_TRUE(TimedGate::Overlaps(s.gates()[0], s.gates()[1]));
}

TEST(ParallelScheduler, RespectsDataDependencies)
{
    const Device device = MakeLinearDevice(3, 3);
    Circuit c(3);
    c.CX(0, 1).CX(1, 2);  // Share qubit 1: must serialize.
    ParallelScheduler scheduler(device);
    const ScheduledCircuit s = scheduler.Schedule(c);
    const auto& g0 = s.gates()[0];
    const auto& g1 = s.gates()[1];
    EXPECT_GE(g1.start_ns, g0.end_ns() - 1e-9);
}

TEST(ParallelScheduler, IsRightAlignedWithSimultaneousReadout)
{
    const Device device = MakeLinearDevice(4, 3);
    Circuit c(4);
    c.H(0).CX(0, 1).CX(2, 3).MeasureAll();
    ParallelScheduler scheduler(device);
    const ScheduledCircuit s = scheduler.Schedule(c);
    // All measures share a start time...
    double measure_start = -1.0;
    double latest_unitary_end = 0.0;
    for (const TimedGate& tg : s.gates()) {
        if (tg.gate.IsMeasure()) {
            if (measure_start < 0) {
                measure_start = tg.start_ns;
            }
            EXPECT_DOUBLE_EQ(tg.start_ns, measure_start);
        } else {
            latest_unitary_end = std::max(latest_unitary_end, tg.end_ns());
        }
    }
    // ... and right alignment leaves no unitary finishing early relative
    // to the qubit's chain end: every leaf unitary ends at readout.
    EXPECT_NEAR(measure_start, latest_unitary_end, 1e-9);
    // Right alignment: the *short* chain's CX(2,3) should end at readout
    // too, not at its ASAP position.
    for (const TimedGate& tg : s.gates()) {
        if (tg.gate.kind == GateKind::kCX && tg.gate.qubits[0] == 2) {
            EXPECT_NEAR(tg.end_ns(), measure_start, 1e-9);
        }
    }
}

TEST(ParallelScheduler, BarrierForcesSerialization)
{
    const Device device = MakeLinearDevice(4, 3);
    Circuit c(4);
    c.CX(0, 1);
    c.Barrier({0, 1, 2, 3});
    c.CX(2, 3);
    ParallelScheduler scheduler(device);
    const ScheduledCircuit s = scheduler.Schedule(c);
    EXPECT_FALSE(TimedGate::Overlaps(s.gates()[0], s.gates()[1]));
    EXPECT_GE(s.gates()[1].start_ns, s.gates()[0].end_ns() - 1e-9);
}

TEST(XtalkScheduler, SerializesHighCrosstalkPair)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkScheduler scheduler(device, characterization);
    const Circuit c = ConflictCircuit();
    const ScheduledCircuit s = scheduler.Schedule(c);
    EXPECT_FALSE(GatesOverlap(s, Gate{GateKind::kCX, {10, 15}, {}, -1},
                              Gate{GateKind::kCX, {11, 12}, {}, -1}));
    EXPECT_EQ(scheduler.stats().candidate_pairs, 1);
    EXPECT_TRUE(scheduler.stats().optimal);
}

TEST(XtalkScheduler, OmegaZeroMatchesParallelBehaviour)
{
    // With omega = 0 only decoherence matters: the high-crosstalk pair
    // should run in parallel, like ParSched (paper Section 9.2).
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkSchedulerOptions options;
    options.omega = 0.0;
    XtalkScheduler scheduler(device, characterization, options);
    const ScheduledCircuit s = scheduler.Schedule(ConflictCircuit());
    EXPECT_TRUE(GatesOverlap(s, Gate{GateKind::kCX, {10, 15}, {}, -1},
                             Gate{GateKind::kCX, {11, 12}, {}, -1}));
}

TEST(XtalkScheduler, OmegaOneStillSerializesCrosstalk)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkSchedulerOptions options;
    options.omega = 1.0;
    XtalkScheduler scheduler(device, characterization, options);
    const ScheduledCircuit s = scheduler.Schedule(ConflictCircuit());
    EXPECT_FALSE(GatesOverlap(s, Gate{GateKind::kCX, {10, 15}, {}, -1},
                              Gate{GateKind::kCX, {11, 12}, {}, -1}));
}

TEST(XtalkScheduler, PreservesDataDependencies)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkScheduler scheduler(device, characterization);
    Circuit c(20);
    c.H(10).CX(10, 15).CX(11, 12).CX(10, 11).Measure(11, 0);
    const ScheduledCircuit s = scheduler.Schedule(c);
    // Verify every dependent pair is ordered.
    const Circuit replay = s.ToCircuit();
    std::vector<double> last_end(20, 0.0);
    for (const TimedGate& tg : s.gates()) {
        for (QubitId q : tg.gate.qubits) {
            EXPECT_GE(tg.start_ns, last_end[q] - 1e-6)
                << "dependency violated on qubit " << q;
        }
        for (QubitId q : tg.gate.qubits) {
            last_end[q] = std::max(last_end[q], tg.end_ns());
        }
    }
}

TEST(XtalkScheduler, SimultaneousReadoutEnforced)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkScheduler scheduler(device, characterization);
    const ScheduledCircuit s = scheduler.Schedule(ConflictCircuit());
    double measure_start = -1.0;
    for (const TimedGate& tg : s.gates()) {
        if (tg.gate.IsMeasure()) {
            if (measure_start < 0) {
                measure_start = tg.start_ns;
            }
            EXPECT_NEAR(tg.start_ns, measure_start, 1e-6);
        }
    }
}

TEST(XtalkScheduler, BeatsBothBaselinesOnModeledObjective)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    // A circuit with both a crosstalk conflict and serial-hurtful depth.
    Circuit c(20);
    c.H(10);
    c.CX(10, 15).CX(11, 12).CX(13, 14).CX(18, 19);
    c.CX(10, 15).CX(11, 12);
    c.Measure(10, 0).Measure(15, 1).Measure(11, 2).Measure(12, 3);

    SerialScheduler serial(device);
    ParallelScheduler parallel(device);
    XtalkScheduler xtalk(device, characterization);

    const auto est_serial = EstimateScheduleError(
        serial.Schedule(c), device, &characterization);
    const auto est_parallel = EstimateScheduleError(
        parallel.Schedule(c), device, &characterization);
    const auto est_xtalk = EstimateScheduleError(
        xtalk.Schedule(c), device, &characterization);

    EXPECT_GE(est_xtalk.success_probability,
              est_serial.success_probability - 1e-9);
    EXPECT_GE(est_xtalk.success_probability,
              est_parallel.success_probability - 1e-9);
    // And the crosstalk overlap count must drop to zero.
    EXPECT_GT(est_parallel.crosstalk_overlaps, 0);
    EXPECT_EQ(est_xtalk.crosstalk_overlaps, 0);
}

TEST(XtalkScheduler, DurationOnlyModestlyLongerThanParSched)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    Circuit c(20);
    c.CX(10, 15).CX(11, 12).CX(16, 17);
    c.Measure(10, 0).Measure(15, 1).Measure(11, 2).Measure(12, 3);
    ParallelScheduler parallel(device);
    XtalkScheduler xtalk(device, characterization);
    const double d_par = parallel.Schedule(c).TotalDuration();
    const double d_xtalk = xtalk.Schedule(c).TotalDuration();
    // Paper: XtalkSched averages 1.16x ParSched duration, worst 1.7x.
    EXPECT_LE(d_xtalk, 2.5 * d_par);
    EXPECT_GE(d_xtalk, d_par - 1e-9);
}

TEST(XtalkScheduler, RejectsBadOmega)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkSchedulerOptions options;
    options.omega = 1.5;
    EXPECT_THROW(XtalkScheduler(device, characterization, options), Error);
}

TEST(XtalkScheduler, BarrieredCircuitKeepsSerializationUnderParSched)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkScheduler xtalk(device, characterization);
    const Circuit c = ConflictCircuit();
    const Circuit barriered = xtalk.ScheduleWithBarriers(c);
    EXPECT_GT(barriered.CountKind(GateKind::kBarrier), 0);

    // Re-schedule with the parallelism-maximizing baseline: the barrier
    // must keep the high-crosstalk CNOTs serialized.
    ParallelScheduler parallel(device);
    const ScheduledCircuit s = parallel.Schedule(barriered);
    EXPECT_FALSE(GatesOverlap(s, Gate{GateKind::kCX, {10, 15}, {}, -1},
                              Gate{GateKind::kCX, {11, 12}, {}, -1}));
}

TEST(XtalkScheduler, NoBarriersWhenNoCrosstalk)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    XtalkScheduler xtalk(device, characterization);
    Circuit c(20);
    c.CX(0, 1).CX(2, 3);  // Crosstalk-free region (paper Section 8.3).
    c.Measure(0, 0).Measure(1, 1);
    const Circuit barriered = xtalk.ScheduleWithBarriers(c);
    EXPECT_EQ(barriered.CountKind(GateKind::kBarrier), 0);
}

TEST(XtalkScheduler, LowCoherenceQubitScheduledLate)
{
    // Figure 6 case study: when SWAP 5,10 and SWAP 11,12 must serialize,
    // the solver should order SWAP 11,12 first so that low-coherence
    // qubit 10's lifetime stays short.
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    ASSERT_LT(device.CoherenceTimeNs(10), device.CoherenceTimeNs(11));

    Circuit c(20);
    // Lowered SWAPs: 3 CX each on (10,15) and (11,12) — a high-crosstalk
    // pair that will be serialized.
    c.CX(10, 15).CX(15, 10).CX(10, 15);
    c.CX(11, 12).CX(12, 11).CX(11, 12);
    c.Measure(10, 0).Measure(15, 1).Measure(11, 2).Measure(12, 3);
    XtalkScheduler xtalk(device, characterization);
    const ScheduledCircuit s = xtalk.Schedule(c);

    double start_1015 = 1e18, start_1112 = 1e18;
    for (const TimedGate& tg : s.gates()) {
        if (tg.gate.kind != GateKind::kCX) {
            continue;
        }
        const auto& q = tg.gate.qubits;
        if ((q[0] == 10 && q[1] == 15) || (q[0] == 15 && q[1] == 10)) {
            start_1015 = std::min(start_1015, tg.start_ns);
        } else {
            start_1112 = std::min(start_1112, tg.start_ns);
        }
    }
    EXPECT_GT(start_1015, start_1112)
        << "SWAP on low-coherence qubit 10 should be placed last";
}

TEST(GreedyScheduler, AlsoSerializesHighCrosstalkPair)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    GreedyXtalkScheduler greedy(device, characterization);
    const ScheduledCircuit s = greedy.Schedule(ConflictCircuit());
    EXPECT_FALSE(GatesOverlap(s, Gate{GateKind::kCX, {10, 15}, {}, -1},
                              Gate{GateKind::kCX, {11, 12}, {}, -1}));
}

TEST(GreedyScheduler, NoWorseThanParSchedOnModel)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    Circuit c(20);
    c.CX(10, 15).CX(11, 12).CX(13, 14).CX(18, 19);
    c.Measure(10, 0).Measure(15, 1);
    GreedyXtalkScheduler greedy(device, characterization);
    ParallelScheduler parallel(device);
    const auto est_greedy = EstimateScheduleError(greedy.Schedule(c), device,
                                                  &characterization);
    const auto est_par = EstimateScheduleError(parallel.Schedule(c), device,
                                               &characterization);
    EXPECT_GE(est_greedy.success_probability,
              est_par.success_probability - 1e-9);
}

TEST(Analysis, ObjectiveMonotonicInOmega)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    ParallelScheduler parallel(device);
    const auto est = EstimateScheduleError(
        parallel.Schedule(ConflictCircuit()), device, &characterization);
    // With crosstalk overlaps present, weighting crosstalk more should
    // increase the (penalizing) objective relative to omega = 0.
    EXPECT_GT(est.Objective(1.0), 0.0);
    EXPECT_GT(est.crosstalk_overlaps, 0);
}

/**
 * A workload far too large for a millisecond solver budget: many layers
 * of parallel crosstalk-coupled CNOTs on a linear device. Used to force
 * the solver-timeout / budget-expiry paths deterministically.
 */
Circuit
OversizedWorkload(const Device& device, int layers)
{
    Circuit c(device.num_qubits());
    for (int l = 0; l < layers; ++l) {
        for (QubitId q = 0; q + 1 < device.num_qubits(); q += 2) {
            c.CX(q, q + 1);
        }
    }
    c.MeasureAll();
    return c;
}

TEST(XtalkSchedulerResilience, InjectedSolveFaultEscapesScheduler)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    faults::ScopedFaultPlan scoped("smt.solve:n=1");
    XtalkScheduler scheduler(device, characterization);
    EXPECT_THROW(scheduler.Schedule(ConflictCircuit()),
                 faults::InjectedFault);
}

TEST(XtalkSchedulerResilience, BudgetExpiryWithoutModelIsSolverFailure)
{
    // A 1 ms per-round timeout on a ~600-gate problem cannot produce a
    // model, and a 5 ms total budget expires within a round or two, so
    // Schedule() must surface SolverFailure (never a z3 exception).
    const Device device = MakeLinearDevice(40, 7, true);
    const auto characterization = OracleCharacterization(device);
    XtalkSchedulerOptions options;
    options.timeout_ms = 1;
    options.total_budget_ms = 5;
    XtalkScheduler scheduler(device, characterization, options);
    EXPECT_THROW(scheduler.Schedule(OversizedWorkload(device, 30)),
                 SolverFailure);
}

TEST(XtalkSchedulerResilience, TimeoutDegradesToVerifiedSchedule)
{
    // Satellite regression: an aggressive solver budget must not abort
    // the pipeline. The timeout counter increments, the compiler
    // degrades down the chain, and the result passes the inter-pass
    // verifiers (verify_passes throws on any illegal schedule).
    telemetry::SetEnabled(true);
    const uint64_t timeouts_before =
        telemetry::GetCounter("sched.xtalk.solver_timeouts").value();
    const Device device = MakeLinearDevice(40, 7, true);
    const auto characterization = OracleCharacterization(device);
    CompilerOptions options;
    options.layout = LayoutPolicy::kTrivial;
    options.scheduler = "xtalk";
    // A generous total budget guarantees the first solve actually runs
    // (a too-tight budget can expire during pre-solve analysis); the
    // 1 ms per-round timeout then forces an `unknown` verdict.
    options.xtalk.timeout_ms = 1;
    options.xtalk.total_budget_ms = 2000;
    options.verify_passes = true;
    const CompileResult result = Compile(
        device, characterization, OversizedWorkload(device, 30), options);
    const uint64_t timeouts_after =
        telemetry::GetCounter("sched.xtalk.solver_timeouts").value();
    telemetry::SetEnabled(false);

    EXPECT_GT(timeouts_after, timeouts_before);
    EXPECT_GT(result.schedule.size(), 0);
    // Either the solver scraped together a (suboptimal) model inside
    // the budget, or the compiler degraded; a degradation must be
    // internally consistent.
    if (result.degradation != "none") {
        EXPECT_FALSE(result.degradation_reason.empty());
        EXPECT_NE(result.scheduler_name, "XtalkSched");
    } else {
        EXPECT_TRUE(result.degradation_reason.empty());
    }
}

TEST(Analysis, GroundTruthAndOracleCharacterizationAgree)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = OracleCharacterization(device);
    ParallelScheduler parallel(device);
    const auto s = parallel.Schedule(ConflictCircuit());
    const auto a = EstimateScheduleError(s, device, &characterization,
                                         ErrorDataSource::kCharacterized);
    const auto b = EstimateScheduleError(s, device, nullptr,
                                         ErrorDataSource::kGroundTruth);
    EXPECT_NEAR(a.success_probability, b.success_probability, 1e-9);
}

}  // namespace
}  // namespace xtalk
