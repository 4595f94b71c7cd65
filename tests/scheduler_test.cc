/**
 * @file
 * Tests for the three schedulers (SerialSched, ParSched, XtalkSched),
 * the greedy ablation, the schedule error model, and barrier insertion.
 * The central scenario mirrors the paper's Figure 1/6: two parallel
 * high-crosstalk CNOT chains that XtalkSched must serialize while
 * keeping everything else parallel. Z3 is the oracle of XtalkSched's
 * min-cost-flow solve for rounds that encode no crosstalk pair.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "characterization/characterizer.h"
#include "circuit/dag.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "scheduler/analysis.h"
#include "scheduler/anneal_scheduler.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_problem.h"
#include "scheduler/xtalk_scheduler.h"
#include "sim/noisy_simulator.h"
#include "telemetry/ledger.h"
#include "telemetry/telemetry.h"
#include "workloads/adversarial.h"
#include "workloads/hidden_shift.h"
#include "workloads/qaoa.h"

#include "compile_warm_shapes.h"

namespace xtalk {
namespace {

using test_shapes::CompileWarmShapes;

/** The paper's conflict scenario on Poughkeepsie: CX10,15 || CX11,12. */
Circuit
ConflictCircuit()
{
    Circuit c(20);
    c.CX(10, 15).CX(11, 12);
    c.Measure(10, 0).Measure(15, 1).Measure(11, 2).Measure(12, 3);
    return c;
}

/** Figure 6's SWAP pair on the same couplers, each SWAP as three CXs. */
Circuit
Fig6SwapPairCircuit()
{
    Circuit c(20);
    c.CX(10, 15).CX(15, 10).CX(10, 15);
    c.CX(11, 12).CX(12, 11).CX(11, 12);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
        serial.Schedule(c), device, characterization);
    const auto est_parallel = EstimateScheduleError(
        parallel.Schedule(c), device, characterization);
    const auto est_xtalk = EstimateScheduleError(
        xtalk.Schedule(c), device, characterization);

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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
    XtalkSchedulerOptions options;
    options.omega = 1.5;
    EXPECT_THROW(XtalkScheduler(device, characterization, options), Error);
}

TEST(XtalkScheduler, BarrieredCircuitKeepsSerializationUnderParSched)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
    GreedyXtalkScheduler greedy(device, characterization);
    const ScheduledCircuit s = greedy.Schedule(ConflictCircuit());
    EXPECT_FALSE(GatesOverlap(s, Gate{GateKind::kCX, {10, 15}, {}, -1},
                              Gate{GateKind::kCX, {11, 12}, {}, -1}));
}

TEST(GreedyScheduler, NoWorseThanParSchedOnModel)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit c(20);
    c.CX(10, 15).CX(11, 12).CX(13, 14).CX(18, 19);
    c.Measure(10, 0).Measure(15, 1);
    GreedyXtalkScheduler greedy(device, characterization);
    ParallelScheduler parallel(device);
    const auto est_greedy = EstimateScheduleError(greedy.Schedule(c), device,
                                                  characterization);
    const auto est_par = EstimateScheduleError(parallel.Schedule(c), device,
                                               characterization);
    EXPECT_GE(est_greedy.success_probability,
              est_par.success_probability - 1e-9);
}

TEST(Analysis, ObjectiveMonotonicInOmega)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    ParallelScheduler parallel(device);
    const auto est = EstimateScheduleError(
        parallel.Schedule(ConflictCircuit()), device, characterization);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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
    const auto characterization = GroundTruthCharacterization(device);
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

// ---------------------------------------------------------------------
// The lifetime flow, with Z3 as its oracle on zero-pair problems.

/** The schedule pass's input: noise-aware layout, then routing. */
Circuit
Routed(const Device& device,
       const CrosstalkCharacterization& characterization,
       const Circuit& logical)
{
    CompilationState state(device, characterization, logical);
    CreateRegisteredPass("layout")->Run(state);
    CreateRegisteredPass("route")->Run(state);
    return *state.routed;
}

/** @p circuit's problem, as XtalkSched builds it. */
XtalkProblem
ProblemFor(const Device& device,
           const CrosstalkCharacterization& characterization,
           const Circuit& circuit)
{
    return BuildXtalkProblem(circuit, device, characterization);
}

/**
 * The flow schedule is feasible and, for every ω, its objective equals
 * the optimum of Z3's zero-pair solve within 1e-9 relative. With no
 * pair the objective is the lifetime sum times the decoherence weight
 * max(1 - ω, 1e-4), which Z3 sees at the solvers' 0.01 resolution: at
 * ω = 1 that weight is 0, every feasible schedule is optimal to Z3, and
 * the flow's lifetime optimum can only be shorter.
 */
void
ExpectFlowMatchesZ3(const XtalkProblem& problem, const std::string& label)
{
    const std::vector<double> flow = SolveLifetimeFlow(problem);
    EXPECT_TRUE(SatisfiesTimingConstraints(problem, flow)) << label;
    const double flow_lifetime = LifetimeObjective(problem, flow);
    for (double omega : {0.0, 0.05, 0.5, 1.0}) {
        const std::vector<double> z3 =
            SolveXtalkProblemWithZ3(problem, {}, omega);
        EXPECT_TRUE(SatisfiesTimingConstraints(problem, z3, 1e-6)) << label;
        const double z3_lifetime = LifetimeObjective(problem, z3);
        const double weight =
            std::llround(std::max(1.0 - omega, 1e-4) * 100.0) / 100.0;
        const double a = weight * flow_lifetime;
        const double b = weight * z3_lifetime;
        EXPECT_LE(std::abs(a - b), 1e-9 * std::max(std::abs(a), std::abs(b)))
            << label << " omega " << omega << ": flow " << a << " z3 " << b;
        EXPECT_LE(flow_lifetime, z3_lifetime * (1.0 + 1e-9)) << label;
    }
}

TEST(XtalkProblemOracle, FlowMatchesZ3OnCompileWarmShapes)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const std::vector<Circuit> circuits =
            CompileWarmShapes(device, seed);
        ASSERT_EQ(circuits.size(), 9u);
        for (size_t k = 0; k < circuits.size(); ++k) {
            ExpectFlowMatchesZ3(
                ProblemFor(device, characterization,
                           Routed(device, characterization, circuits[k])),
                "seed " + std::to_string(seed) + " shape " +
                    std::to_string(k));
        }
    }
}

TEST(XtalkProblemOracle, FlowMatchesZ3OnPipelineSweepCircuits)
{
    // The property suite's PipelineSweep inputs: random device-compliant
    // circuits on the three paper devices, scheduled as laid out.
    const std::vector<Device> devices = MakePaperDevices();
    for (int d = 0; d < static_cast<int>(devices.size()); ++d) {
        const Device& device = devices[d];
        const Topology& topo = device.topology();
        const auto characterization = GroundTruthCharacterization(device);
        for (int seed = 0; seed < 4; ++seed) {
            Rng rng(9000 + 131 * d + seed);
            Circuit c(topo.num_qubits());
            for (int i = 0; i < 20; ++i) {
                if (rng.Bernoulli(0.45)) {
                    const auto e =
                        static_cast<EdgeId>(rng.UniformInt(topo.num_edges()));
                    c.CX(topo.edge(e).a, topo.edge(e).b);
                } else {
                    const auto q = static_cast<QubitId>(
                        rng.UniformInt(topo.num_qubits()));
                    switch (rng.UniformInt(3)) {
                      case 0: c.H(q); break;
                      case 1: c.T(q); break;
                      default: c.U2(0.3, 1.1, q); break;
                    }
                }
            }
            const auto active = c.ActiveQubits();
            for (size_t k = 0; k < std::min<size_t>(active.size(), 4); ++k) {
                c.Measure(active[k], static_cast<ClbitId>(k));
            }
            ExpectFlowMatchesZ3(ProblemFor(device, characterization, c),
                                device.name() + " seed " +
                                    std::to_string(seed));
        }
    }
}

TEST(XtalkProblemOracle, FlowMatchesZ3WithBarriersZeroDurationsAndGroups)
{
    // Problems no compile produces: barriers, zero-duration gates and
    // several readout groups, edited into the solver-neutral problem.
    const Device device = MakeLinearDevice(8, 5);
    const auto characterization = GroundTruthCharacterization(device);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        Circuit c(8);
        for (int i = 0; i < 30; ++i) {
            const auto q = static_cast<QubitId>(rng.UniformInt(7));
            switch (rng.UniformInt(4)) {
              case 0: c.CX(q, q + 1); break;
              case 1: c.H(q); break;
              case 2: c.Barrier({q, static_cast<QubitId>(q + 1)}); break;
              default: c.RZ(0.7, q); break;
            }
        }
        for (QubitId q = 0; q < 8; ++q) {
            c.Measure(q, q);
        }
        XtalkProblem problem = ProblemFor(device, characterization, c);
        for (GateId g = 0; g < problem.n; ++g) {
            if (!c.gate(g).IsMeasure() && rng.Bernoulli(0.25)) {
                problem.duration[g] = 0.0;
            }
        }
        ASSERT_EQ(problem.readout_groups.size(), 1u);
        const std::vector<GateId> measures = problem.readout_groups[0];
        problem.readout_groups.assign(2, {});
        for (GateId m : measures) {
            problem.readout_groups[rng.UniformInt(2)].push_back(m);
        }
        ExpectFlowMatchesZ3(problem, "seed " + std::to_string(seed));
    }
}

TEST(XtalkProblemOracle, OrderedReadoutGroupIsAUserErrorOnBothSolvers)
{
    // measure q0; cx 0,1; measure q1: the readouts cannot start together.
    const Device device = MakeLinearDevice(3, 3);
    const auto characterization = GroundTruthCharacterization(device);
    Circuit c(3);
    c.Measure(0, 0).CX(0, 1).Measure(1, 1);
    const XtalkProblem problem = ProblemFor(device, characterization, c);
    try {
        SolveLifetimeFlow(problem);
        ADD_FAILURE() << "an infeasible readout group was solved";
    } catch (const InternalError&) {
        ADD_FAILURE() << "infeasible readout reported as a bug";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("unsatisfiable"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(SolveXtalkProblemWithZ3(problem, {}, 0.5), Error);
    XtalkScheduler scheduler(device, characterization);
    EXPECT_THROW(scheduler.Schedule(c), Error);
}

TEST(XtalkProblemOracle, OnlyCircuitsThatEncodeAPairBuildZ3)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    telemetry::SetEnabled(true);
    const auto flow_solves = [] {
        return telemetry::GetCounter("sched.xtalk.flow_solves").value();
    };

    Circuit quiet(20);
    quiet.CX(0, 1).CX(2, 3).Measure(0, 0).Measure(1, 1);
    XtalkScheduler xtalk(device, characterization);
    uint64_t before = flow_solves();
    const ScheduledCircuit s = xtalk.Schedule(quiet);
    EXPECT_EQ(s.size(), quiet.size());
    EXPECT_EQ(flow_solves(), before + 1);
    EXPECT_EQ(xtalk.stats().solver_builds, 0);
    EXPECT_EQ(xtalk.stats().candidate_pairs, 0);
    EXPECT_TRUE(xtalk.stats().optimal);

    // One flow solve serves a whole ω sweep: the argmin ignores ω.
    before = flow_solves();
    const std::vector<OmegaSolveResult> sweep =
        xtalk.ScheduleForOmegas(quiet, {0.0, 0.5, 1.0});
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(flow_solves(), before + 1);
    EXPECT_EQ(sweep[0].start_ns, sweep[2].start_ns);
    EXPECT_EQ(xtalk.stats().omegas_solved, 3);
    // Every candidate then scores the same, so auto keeps its first ω.
    CompilerOptions options;
    options.layout = LayoutPolicy::kTrivial;
    options.scheduler = "auto";
    options.omega_candidates = {0.3, 0.6, 0.9};
    const CompileResult automatic =
        Compile(device, characterization, quiet, options);
    ASSERT_TRUE(automatic.omega.has_value());
    EXPECT_EQ(*automatic.omega, 0.3);

    // The Fig. 6 SWAP pair and the conflict circuit encode a pair.
    for (const Circuit& encoded :
         {Fig6SwapPairCircuit(), ConflictCircuit()}) {
        before = flow_solves();
        xtalk.Schedule(encoded);
        EXPECT_EQ(flow_solves(), before);
        EXPECT_EQ(xtalk.stats().solver_builds, 1);
        EXPECT_GT(xtalk.stats().candidate_pairs, 0);
    }
    telemetry::SetEnabled(false);
}

TEST(XtalkProblemOracle, ZeroPairCircuitKeepsFaultSemantics)
{
    // The fault point fires before the flow solve too, and the compiler
    // degrades down the chain.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit quiet(20);
    quiet.CX(0, 1).CX(2, 3).Measure(0, 0).Measure(1, 1);
    faults::ScopedFaultPlan scoped("smt.solve:n=1");
    CompilerOptions options;
    options.layout = LayoutPolicy::kTrivial;
    options.scheduler = "xtalk";
    const CompileResult result =
        Compile(device, characterization, quiet, options);
    EXPECT_EQ(result.degradation, "greedy");
    EXPECT_NE(result.degradation_reason.find("smt.solve"), std::string::npos)
        << result.degradation_reason;
}

/** A schedule at full double precision, plus the annealer's counters
 *  for the call that produced it. */
std::string
AnnealFingerprint(const ScheduledCircuit& schedule,
                  const AnnealSchedulerStats& stats)
{
    std::ostringstream oss;
    oss << std::setprecision(17);
    oss << "pairs " << stats.candidate_pairs << " iterations "
        << stats.iterations_run << " accepted " << stats.accepted
        << " serialized " << stats.serialized << "\n";
    for (const TimedGate& g : schedule.gates()) {
        oss << ToString(g.gate) << " @ " << g.start_ns << " + "
            << g.duration_ns << "\n";
    }
    return oss.str();
}

TEST(AnnealScheduler, PinnedSchedulesForSeededCircuits)
{
    // AnnealSched's output on the Fig. 6 SWAP pair, the conflict
    // circuit, and the nine seed-1 compile_warm shapes routed as the
    // schedule pass sees them. A change meant to keep the annealer's
    // results must pass this unedited.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    std::vector<std::pair<std::string, Circuit>> circuits{
        {"fig6-swap-pair", Fig6SwapPairCircuit()},
        {"conflict", ConflictCircuit()}};
    const std::vector<Circuit> shapes = CompileWarmShapes(device, 1);
    ASSERT_EQ(shapes.size(), 9u);
    for (size_t k = 0; k < shapes.size(); ++k) {
        circuits.push_back({"seed1-shape" + std::to_string(k),
                            Routed(device, characterization, shapes[k])});
    }
    const std::vector<std::string> pinned{
        "0335b300c2d8ecc7", "34ddc842f909c726", "ac0a13d792285206",
        "65c1c530f7ad6217", "803e35edaf94b2cb", "a1f011bce79a8df5",
        "6f67358bdb608921", "54630f2f33e2cb3b", "96fe780e17b5a3f0",
        "480b4a347b703a29", "7521acafc186959b",
    };
    ASSERT_EQ(circuits.size(), pinned.size());
    AnnealScheduler scheduler(device, characterization);
    for (size_t k = 0; k < circuits.size(); ++k) {
        const ScheduledCircuit schedule =
            scheduler.Schedule(circuits[k].second);
        EXPECT_EQ(telemetry::FnvHex(
                      AnnealFingerprint(schedule, scheduler.stats())),
                  pinned[k])
            << circuits[k].first;
    }
}

/** A schedule at full double precision, one gate per line. */
std::string
ScheduleFingerprint(const ScheduledCircuit& schedule)
{
    std::ostringstream oss;
    oss << std::setprecision(17);
    for (const TimedGate& g : schedule.gates()) {
        oss << ToString(g.gate) << " @ " << g.start_ns << " + "
            << g.duration_ns << "\n";
    }
    return oss.str();
}

TEST(GreedyScheduler, PinnedSchedulesForSeededCircuits)
{
    // GreedySched's output at omega 0, 0.5 and 1 on the circuits the
    // annealer is pinned on. A change meant to keep the greedy
    // scheduler's results must pass this unedited.
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    std::vector<std::pair<std::string, Circuit>> circuits{
        {"fig6-swap-pair", Fig6SwapPairCircuit()},
        {"conflict", ConflictCircuit()}};
    const std::vector<Circuit> shapes = CompileWarmShapes(device, 1);
    ASSERT_EQ(shapes.size(), 9u);
    for (size_t k = 0; k < shapes.size(); ++k) {
        circuits.push_back({"seed1-shape" + std::to_string(k),
                            Routed(device, characterization, shapes[k])});
    }
    const std::vector<double> omegas{0.0, 0.5, 1.0};
    // One row per circuit, one hash per omega.
    const std::vector<std::vector<std::string>> pinned{
        {"07fbcdc9df98cc06", "e3944620bcaf402a", "e3944620bcaf402a"},
        {"b697e7ef4979e78a", "7d6de24d5580fb62", "7d6de24d5580fb62"},
        {"45b89fa394a91144", "45b89fa394a91144", "45b89fa394a91144"},
        {"75ed0a2b333456a5", "75ed0a2b333456a5", "75ed0a2b333456a5"},
        {"36a2ab04bfa09915", "36a2ab04bfa09915", "36a2ab04bfa09915"},
        {"82510dc19c714fff", "82510dc19c714fff", "82510dc19c714fff"},
        {"b1895698927737ef", "b1895698927737ef", "b1895698927737ef"},
        {"4329cb48f11ba421", "4329cb48f11ba421", "4329cb48f11ba421"},
        {"80cf7c16cb48861e", "80cf7c16cb48861e", "80cf7c16cb48861e"},
        {"b949e997e8d0324f", "b949e997e8d0324f", "b949e997e8d0324f"},
        {"eea4e631e7d1c559", "eea4e631e7d1c559", "eea4e631e7d1c559"},
    };
    ASSERT_EQ(circuits.size(), pinned.size());
    for (size_t k = 0; k < circuits.size(); ++k) {
        for (size_t w = 0; w < omegas.size(); ++w) {
            GreedyXtalkScheduler scheduler(device, characterization,
                                           {omegas[w]});
            EXPECT_EQ(telemetry::FnvHex(ScheduleFingerprint(
                          scheduler.Schedule(circuits[k].second))),
                      pinned[k][w])
                << circuits[k].first << " omega " << omegas[w];
        }
    }
}

/** Sum of log(max(1e-12, 1 - e)) over the gate errors the simulators
 *  run on @p schedule, in schedule order. */
double
SimulatedLogGateSuccess(const Device& device, const ScheduledCircuit& schedule)
{
    double sum = 0.0;
    for (const RunPlan::Op& op : BuildRunPlan(device, {}, schedule).ops) {
        if (!op.gate.IsMeasure()) {
            sum += std::log(std::max(1e-12, 1.0 - op.error));
        }
    }
    return sum;
}

TEST(Analysis, GroundTruthScoreMatchesSimulatedGateErrors)
{
    // One overlap rule at the same rates: scored against the ground
    // truth, the gate term equals the simulators' bit for bit.
    auto check = [](const Device& device, const ScheduledCircuit& schedule,
                    const std::string& label) {
        const ScheduleErrorEstimate estimate = EstimateScheduleError(
            schedule, device, GroundTruthCharacterization(device));
        EXPECT_EQ(estimate.log_gate_success,
                  SimulatedLogGateSuccess(device, schedule))
            << label;
        return estimate.crosstalk_overlaps;
    };
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    ParallelScheduler parallel(device);
    EXPECT_GT(check(device, parallel.Schedule(ConflictCircuit()), "conflict"),
              0);
    Circuit swaps(20);
    swaps.Swap(10, 15).Swap(11, 12).Measure(10, 0).Measure(11, 1);
    EXPECT_GT(check(device, parallel.Schedule(swaps), "swap pair"), 0);
    RbRunner runner(device, RbConfig{});
    Rng rng(5);
    const ScheduledCircuit srb = runner.BuildSrbSchedule(
        {topo.FindEdge(10, 15), topo.FindEdge(11, 12)}, 30, rng);
    EXPECT_GT(check(device, srb, "two-coupler SRB"), 0);

    for (const Device& paper : MakePaperDevices()) {
        const auto characterization = GroundTruthCharacterization(paper);
        const std::vector<Circuit> shapes = CompileWarmShapes(paper, 1);
        ASSERT_EQ(shapes.size(), 9u);
        for (size_t k = 0; k < shapes.size(); ++k) {
            check(paper,
                  ParallelScheduler(paper).Schedule(
                      Routed(paper, characterization, shapes[k])),
                  paper.name() + " shape " + std::to_string(k));
        }
    }
}

}  // namespace
}  // namespace xtalk
