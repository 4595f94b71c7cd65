/**
 * @file
 * Tests for the circuit IR: gate validation, the builder API, the
 * dependency DAG (including barriers), and timed schedules.
 */
#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "common/error.h"

namespace xtalk {
namespace {

TEST(Gate, KindMetadata)
{
    EXPECT_EQ(GateKindName(GateKind::kCX), "cx");
    EXPECT_EQ(GateKindName(GateKind::kU3), "u3");
    EXPECT_EQ(GateKindNumParams(GateKind::kU3), 3);
    EXPECT_EQ(GateKindNumParams(GateKind::kH), 0);
    EXPECT_EQ(GateKindNumQubits(GateKind::kCX), 2);
    EXPECT_EQ(GateKindNumQubits(GateKind::kBarrier), -1);
}

TEST(Gate, ToStringRendersQubitsAndParams)
{
    Gate u3{GateKind::kU3, {4}, {0.5, 0.25, 0.125}, -1};
    EXPECT_EQ(ToString(u3), "u3(0.5, 0.25, 0.125) q4");
    Gate m{GateKind::kMeasure, {2}, {}, 5};
    EXPECT_EQ(ToString(m), "measure q2 -> c5");
}

TEST(Circuit, BuilderChainsAndCounts)
{
    Circuit c(3);
    c.H(0).CX(0, 1).T(1).CX(1, 2).MeasureAll();
    EXPECT_EQ(c.size(), 7);
    EXPECT_EQ(c.CountKind(GateKind::kCX), 2);
    EXPECT_EQ(c.CountTwoQubitGates(), 2);
    EXPECT_EQ(c.num_clbits(), 3);
    EXPECT_EQ(c.ActiveQubits(), (std::vector<QubitId>{0, 1, 2}));
}

TEST(Circuit, RejectsInvalidGates)
{
    Circuit c(2);
    EXPECT_THROW(c.CX(0, 0), Error);                       // Duplicate qubit.
    EXPECT_THROW(c.H(5), Error);                           // Out of range.
    EXPECT_THROW(c.Add({GateKind::kCX, {0}, {}, -1}), Error);  // Arity.
    EXPECT_THROW(c.Add({GateKind::kRX, {0}, {}, -1}), Error);  // Params.
    EXPECT_THROW(c.Add({GateKind::kMeasure, {0}, {}, -1}), Error);  // cbit.
    EXPECT_THROW(Circuit(0), Error);
}

TEST(Circuit, BarrierQubitsAreCheckedInOrder)
{
    Circuit c(12);
    const auto first_problem = [&](std::vector<QubitId> qubits) {
        try {
            c.Barrier(std::move(qubits));
        } catch (const Error& e) {
            const std::string what = e.what();
            return what.find("duplicate qubit") != std::string::npos
                       ? "duplicate"
                       : what.find("out of range") != std::string::npos
                             ? "range"
                             : "other";
        }
        return "none";
    };
    EXPECT_STREQ(first_problem({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}),
                 "none");
    EXPECT_STREQ(first_problem({1, 2, 1, 12}), "duplicate");
    EXPECT_STREQ(first_problem({1, 2, 12, 1}), "range");
    EXPECT_STREQ(first_problem({0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 12}),
                 "duplicate");
    EXPECT_STREQ(first_problem({0, 1, 2, 3, 4, 5, 6, 7, 8, -1, 3}), "range");
    EXPECT_EQ(c.size(), 1);
}

TEST(Circuit, DepthCountsBarrierOrderingButNotBarriers)
{
    Circuit c(2);
    c.H(0).Barrier({0, 1}).H(1);
    // The barrier itself adds no depth, but it serializes H(1) after
    // H(0), so the longest chain holds two unitaries.
    EXPECT_EQ(c.Depth(), 2);
    c.CX(0, 1);
    EXPECT_EQ(c.Depth(), 3);
    // Without the barrier the two H gates share a layer.
    Circuit free(2);
    free.H(0).H(1);
    EXPECT_EQ(free.Depth(), 1);
}

TEST(Circuit, AppendMappedRelocatesQubitsAndClbits)
{
    Circuit inner(2);
    inner.H(0).CX(0, 1).Measure(1, 0);
    Circuit outer(5);
    outer.AppendMapped(inner, {3, 4}, 2);
    EXPECT_EQ(outer.gate(0).qubits[0], 3);
    EXPECT_EQ(outer.gate(1).qubits, (Gate::Qubits{3, 4}));
    EXPECT_EQ(outer.gate(2).cbit, 2);
    EXPECT_THROW(outer.AppendMapped(inner, {0}), Error);
}

TEST(Dag, LinearChainDependencies)
{
    Circuit c(2);
    c.H(0).CX(0, 1).H(1);
    const DependencyDag dag(c);
    EXPECT_TRUE(dag.Predecessors(0).empty());
    EXPECT_EQ(dag.Predecessors(1), (std::vector<GateId>{0}));
    EXPECT_EQ(dag.Predecessors(2), (std::vector<GateId>{1}));
    EXPECT_TRUE(dag.IsAncestor(0, 2));
    EXPECT_FALSE(dag.IsAncestor(2, 0));
}

TEST(Dag, IndependentGatesCanOverlap)
{
    Circuit c(4);
    c.CX(0, 1).CX(2, 3);
    const DependencyDag dag(c);
    EXPECT_TRUE(dag.CanOverlap(0, 1));
}

TEST(Dag, SharedQubitCreatesOneEdge)
{
    Circuit c(2);
    c.CX(0, 1).CX(0, 1);  // Shares both qubits; exactly one dep edge.
    const DependencyDag dag(c);
    EXPECT_EQ(dag.Predecessors(1).size(), 1u);
    EXPECT_FALSE(dag.CanOverlap(0, 1));
}

TEST(Dag, BarrierOrdersAcrossQubits)
{
    Circuit c(4);
    c.CX(0, 1);          // gate 0
    c.Barrier({0, 1, 2, 3});  // gate 1
    c.CX(2, 3);          // gate 2
    const DependencyDag dag(c);
    EXPECT_TRUE(dag.IsAncestor(0, 2));
    EXPECT_FALSE(dag.CanOverlap(0, 2));
}

TEST(Dag, TransitiveClosureThroughLongChain)
{
    Circuit c(2);
    for (int i = 0; i < 100; ++i) {
        c.H(0);
    }
    const DependencyDag dag(c);
    EXPECT_TRUE(dag.IsAncestor(0, 99));
    EXPECT_FALSE(dag.IsAncestor(99, 0));
}

TEST(Dag, AsapLayersSkipBarriers)
{
    Circuit c(4);
    c.H(0).CX(0, 1);
    c.Barrier({1, 2});
    c.CX(2, 3);
    const DependencyDag dag(c);
    const auto layers = dag.AsapLayers();
    EXPECT_EQ(layers[0], 0);
    EXPECT_EQ(layers[1], 1);
    EXPECT_EQ(layers[3], 2);  // After the barrier, which adds no depth.
}

TEST(TimedGate, OverlapIsStrict)
{
    TimedGate a{Gate{GateKind::kCX, {0, 1}, {}, -1}, 0.0, 100.0};
    TimedGate b{Gate{GateKind::kCX, {2, 3}, {}, -1}, 100.0, 100.0};
    TimedGate c{Gate{GateKind::kCX, {2, 3}, {}, -1}, 99.0, 100.0};
    EXPECT_FALSE(TimedGate::Overlaps(a, b));  // Abutting: no overlap.
    EXPECT_TRUE(TimedGate::Overlaps(a, c));
    EXPECT_TRUE(TimedGate::Overlaps(c, a));
}

TEST(ScheduledCircuit, KeepsStartOrderAndDuration)
{
    ScheduledCircuit s(4);
    s.Add(Gate{GateKind::kCX, {2, 3}, {}, -1}, 500.0, 100.0);
    s.Add(Gate{GateKind::kH, {0}, {}, -1}, 0.0, 50.0);
    EXPECT_EQ(s.gates()[0].gate.kind, GateKind::kH);
    EXPECT_DOUBLE_EQ(s.TotalDuration(), 600.0);
}

TEST(ScheduledCircuit, QubitLifetimeSpansFirstToLast)
{
    ScheduledCircuit s(3);
    s.Add(Gate{GateKind::kH, {1}, {}, -1}, 100.0, 50.0);
    s.Add(Gate{GateKind::kCX, {1, 2}, {}, -1}, 400.0, 300.0);
    EXPECT_DOUBLE_EQ(s.QubitLifetime(1), 600.0);
    EXPECT_DOUBLE_EQ(s.QubitLifetime(2), 300.0);
    EXPECT_DOUBLE_EQ(s.QubitLifetime(0), 0.0);
    EXPECT_DOUBLE_EQ(s.FirstStartOn(1), 100.0);
    EXPECT_DOUBLE_EQ(s.LastEndOn(1), 700.0);
    EXPECT_LT(s.FirstStartOn(0), 0.0);
}

TEST(TimedGate, OverlapIsStrictIntersectionInTime)
{
    const TimedGate cx01{Gate{GateKind::kCX, {0, 1}, {}, -1}, 0.0, 100.0};
    const TimedGate cx23{Gate{GateKind::kCX, {2, 3}, {}, -1}, 50.0, 100.0};
    const TimedGate cx45{Gate{GateKind::kCX, {4, 5}, {}, -1}, 200.0, 100.0};
    const TimedGate h0{Gate{GateKind::kH, {0}, {}, -1}, 60.0, 10.0};
    EXPECT_TRUE(TimedGate::Overlaps(cx01, cx23));
    EXPECT_TRUE(TimedGate::Overlaps(cx23, cx01));
    EXPECT_TRUE(TimedGate::Overlaps(cx01, h0));  // Nested.
    EXPECT_FALSE(TimedGate::Overlaps(cx01, cx45));
    EXPECT_FALSE(TimedGate::Overlaps(cx23, cx45));
    // Abutting gates share an endpoint and do not overlap.
    const TimedGate after01{Gate{GateKind::kCX, {2, 3}, {}, -1}, 100.0, 50.0};
    EXPECT_FALSE(TimedGate::Overlaps(cx01, after01));
    EXPECT_FALSE(TimedGate::Overlaps(after01, cx01));
}

TEST(ScheduledCircuit, RejectsInvalidTimes)
{
    ScheduledCircuit s(2);
    EXPECT_THROW(s.Add(Gate{GateKind::kH, {0}, {}, -1}, -5.0, 10.0), Error);
    EXPECT_THROW(s.Add(Gate{GateKind::kH, {0}, {}, -1}, 0.0, -1.0), Error);
    EXPECT_THROW(s.Add(Gate{GateKind::kH, {7}, {}, -1}, 0.0, 1.0), Error);
}

TEST(ScheduledCircuit, ToCircuitPreservesTimeOrder)
{
    ScheduledCircuit s(2);
    s.Add(Gate{GateKind::kX, {0}, {}, -1}, 100.0, 10.0);
    s.Add(Gate{GateKind::kH, {1}, {}, -1}, 0.0, 10.0);
    const Circuit c = s.ToCircuit();
    EXPECT_EQ(c.gate(0).kind, GateKind::kH);
    EXPECT_EQ(c.gate(1).kind, GateKind::kX);
}

}  // namespace
}  // namespace xtalk
