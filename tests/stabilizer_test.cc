/**
 * @file
 * Tests for the CHP stabilizer simulator: agreement of the tableau's
 * measurement with the state vector on Clifford circuits, correct
 * measurement statistics and collapse, noise-channel behaviour, and RB
 * backend equivalence (the stabilizer backend must reproduce the
 * state-vector backend's error estimates within statistical tolerance).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "characterization/rb.h"
#include "clifford/tableau.h"
#include "common/error.h"
#include "common/rng.h"
#include "device/ibmq_devices.h"
#include "scheduler/scheduler.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"

namespace xtalk {
namespace {

TEST(TableauState, DeterministicMeasurementOfBasisStates)
{
    Rng rng(1);
    Tableau state(3);
    EXPECT_DOUBLE_EQ(state.ProbabilityOne(0), 0.0);
    state.ApplyX(1);
    EXPECT_DOUBLE_EQ(state.ProbabilityOne(1), 1.0);
    EXPECT_TRUE(state.MeasureQubit(1, rng));
    EXPECT_FALSE(state.MeasureQubit(0, rng));
}

TEST(TableauState, PlusStateIsRandomThenCollapses)
{
    Rng rng(7);
    Tableau state(1);
    state.ApplyH(0);
    EXPECT_DOUBLE_EQ(state.ProbabilityOne(0), 0.5);
    const bool outcome = state.MeasureQubit(0, rng);
    // Collapsed: repeated measurement is deterministic.
    EXPECT_DOUBLE_EQ(state.ProbabilityOne(0), outcome ? 1.0 : 0.0);
    EXPECT_EQ(state.MeasureQubit(0, rng), outcome);
}

TEST(TableauState, BellStateCorrelations)
{
    Rng rng(11);
    int agree = 0;
    const int trials = 500;
    int ones = 0;
    for (int t = 0; t < trials; ++t) {
        Tableau state(2);
        state.ApplyH(0);
        state.ApplyCX(0, 1);
        const bool a = state.MeasureQubit(0, rng);
        const bool b = state.MeasureQubit(1, rng);
        agree += (a == b);
        ones += a;
    }
    EXPECT_EQ(agree, trials);  // Perfect correlation.
    EXPECT_NEAR(ones / static_cast<double>(trials), 0.5, 0.07);
}

TEST(TableauState, GhzParityIsRandomPerShotButConsistent)
{
    Rng rng(13);
    for (int t = 0; t < 50; ++t) {
        Tableau state(4);
        state.ApplyH(0);
        for (int q = 0; q + 1 < 4; ++q) {
            state.ApplyCX(q, q + 1);
        }
        const bool first = state.MeasureQubit(0, rng);
        for (int q = 1; q < 4; ++q) {
            EXPECT_EQ(state.MeasureQubit(q, rng), first);
        }
    }
}

TEST(TableauState, MatchesStateVectorOnRandomCliffordCircuits)
{
    Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 4;
        Circuit circuit(n);
        for (int i = 0; i < 25; ++i) {
            const int q = static_cast<int>(rng.UniformInt(n));
            int q2 = (q + 1 + static_cast<int>(rng.UniformInt(n - 1))) % n;
            switch (rng.UniformInt(5)) {
              case 0: circuit.H(q); break;
              case 1: circuit.S(q); break;
              case 2: circuit.X(q); break;
              case 3: circuit.CX(q, q2); break;
              default: circuit.CZ(q, q2); break;
            }
        }
        StateVector sv(n);
        sv.ApplyCircuit(circuit);
        Tableau stab(n);
        for (const Gate& g : circuit.gates()) {
            stab.ApplyGate(g);
        }
        for (int q = 0; q < n; ++q) {
            EXPECT_NEAR(stab.ProbabilityOne(q), sv.ProbabilityOne(q), 1e-9)
                << "trial " << trial << " qubit " << q;
        }
    }
}

TEST(TableauState, RejectsNonCliffordGates)
{
    Rng rng(19);
    Tableau state(1);
    state.ApplyX(0);
    EXPECT_THROW(state.ApplyGate(Gate{GateKind::kT, {0}, {}, -1}), Error);
    EXPECT_THROW(state.ApplyGate(Gate{GateKind::kRX, {0}, {0.2}, -1}),
                 Error);
    // A rejected gate leaves the state as it was.
    EXPECT_DOUBLE_EQ(state.ProbabilityOne(0), 1.0);
    EXPECT_TRUE(state.MeasureQubit(0, rng));
}

TEST(StabilizerSimulator, NoiseFreeBellMatchesStateVectorEngine)
{
    const Device device = MakeLinearDevice(2, 3);
    Circuit bell(2);
    bell.H(0).CX(0, 1).MeasureAll();
    ParallelScheduler scheduler(device);
    const ScheduledCircuit schedule = scheduler.Schedule(bell);
    NoisySimOptions noiseless;
    noiseless.gate_noise = false;
    noiseless.decoherence = false;
    noiseless.readout_noise = false;
    noiseless.seed = 5;
    StabilizerSimulator sim(device, noiseless);
    const Counts counts = sim.Run(schedule, RunSpec{2000});
    EXPECT_NEAR(counts.Probability(0b00), 0.5, 0.05);
    EXPECT_NEAR(counts.Probability(0b00) + counts.Probability(0b11), 1.0,
                1e-12);
}

TEST(StabilizerSimulator, AgreesWithTrajectoryEngineUnderFullNoise)
{
    // Same schedule, both engines, full noise: outcome distributions
    // agree within sampling error + the Pauli-twirl approximation.
    const Device device = MakePoughkeepsie();
    Circuit c(20);
    c.H(10).CX(10, 15).CX(11, 12).CX(10, 15);
    c.Measure(10, 0).Measure(15, 1).Measure(11, 2).Measure(12, 3);
    ParallelScheduler scheduler(device);
    const ScheduledCircuit schedule = scheduler.Schedule(c);

    NoisySimOptions options;
    options.seed = 21;
    NoisySimulator trajectory(device, options);
    StabilizerSimulator stabilizer(device, options);
    const auto p_traj = trajectory.Run(schedule, RunSpec{6000}).ToProbabilities();
    const auto p_stab = stabilizer.Run(schedule, RunSpec{6000}).ToProbabilities();
    double tv = 0.0;
    for (size_t i = 0; i < p_traj.size(); ++i) {
        tv += std::abs(p_traj[i] - p_stab[i]);
    }
    EXPECT_LT(0.5 * tv, 0.05);
}

TEST(StabilizerSimulator, RejectsNonCliffordSchedules)
{
    const Device device = MakeLinearDevice(2, 3);
    Circuit c(2);
    c.T(0).MeasureAll();
    ParallelScheduler scheduler(device);
    StabilizerSimulator sim(device);
    EXPECT_THROW(sim.Run(scheduler.Schedule(c), RunSpec{10}), Error);
}

TEST(StabilizerBackend, RbEstimatesMatchStateVectorBackend)
{
    const Device device = MakePoughkeepsie();
    const EdgeId edge = device.topology().FindEdge(5, 6);
    RbConfig config;
    config.lengths = {1, 2, 4, 7, 12, 20, 30};
    config.sequences_per_length = 6;
    config.shots = 128;
    config.seed = 41;
    RbRunner sv_runner(device, config);
    config.use_stabilizer_backend = true;
    RbRunner stab_runner(device, config);
    const RbResult sv = sv_runner.MeasureIndependent(edge);
    const RbResult stab = stab_runner.MeasureIndependent(edge);
    ASSERT_TRUE(sv.ok && stab.ok);
    EXPECT_NEAR(stab.cnot_error, sv.cnot_error,
                0.5 * sv.cnot_error + 0.01);
}

TEST(StabilizerBackend, DetectsCrosstalkLikeStateVectorBackend)
{
    const Device device = MakePoughkeepsie();
    const Topology& topo = device.topology();
    const EdgeId victim = topo.FindEdge(10, 15);
    const EdgeId aggressor = topo.FindEdge(11, 12);
    RbConfig config;
    config.lengths = {1, 2, 4, 7, 12, 20, 30};
    config.sequences_per_length = 6;
    config.shots = 128;
    config.seed = 43;
    config.use_stabilizer_backend = true;
    RbRunner runner(device, config);
    const RbResult independent = runner.MeasureIndependent(victim);
    const auto srb = runner.MeasureSimultaneous({victim, aggressor});
    ASSERT_TRUE(independent.ok && srb[0].ok);
    EXPECT_GT(srb[0].cnot_error, 2.0 * independent.cnot_error);
}

}  // namespace
}  // namespace xtalk
