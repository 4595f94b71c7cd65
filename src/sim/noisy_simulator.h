/**
 * @file
 * Monte-Carlo trajectory simulator for scheduled circuits on a Device.
 *
 * Per shot, the simulator replays the schedule in time order and injects
 * the three error mechanisms the paper's tradeoff is about:
 *
 *  - gate errors: after each unitary, a random Pauli on the gate's qubits
 *    with the gate's error probability; for two-qubit gates the
 *    probability is the *conditional* error rate when the gate overlaps
 *    in time with an aggressor gate in the device's crosstalk ground
 *    truth (this is how crosstalk physically manifests here). The rule
 *    is OverlapGateErrors below, the one the schedule score
 *    (scheduler/analysis.h) applies to a characterization's rates;
 *  - decoherence: amplitude damping (T1) and dephasing (T2) trajectory
 *    steps over every busy/idle interval between a qubit's first and
 *    last scheduled operation;
 *  - readout errors: classical bit flips with the per-qubit assignment
 *    error, plus decay during the readout window.
 *
 * Only the qubits the schedule touches are simulated (the register is
 * compacted), so 20-qubit devices with few active qubits stay cheap.
 *
 * Who runs it. A default-backend runtime::Executor job whose measures
 * are all terminal does not: it samples the exact outcome distribution
 * (sim/exact_distribution.h), which BuildRunPlan and PlanRegisters
 * below also feed. This engine runs SRB and interleaved-RB sequences
 * (RbRunner::BuildJobs names runtime::SimBackend::kStatevector),
 * default-backend jobs with a mid-circuit measure or a register too
 * wide for the exact engine's cost test, and the differential oracle's
 * Monte-Carlo arm.
 *
 * How a run executes. BuildRunPlan() does the setup both trajectory
 * backends share, once per run and in time linear in the gates (plus
 * one step per overlapping pair of two-qubit gates): compaction, the
 * effective gate errors (OverlapGateErrors at the device's calibrated
 * and ground-truth rates), every decoherence interval with its damping
 * and dephasing probabilities (the schedule fixes every shot's qubit
 * clocks, so these are the same in every shot), the readout errors and
 * the classical-bit check. The state-vector engine compiles that plan
 * into kernel steps with fixed-size gate coefficients (a parameterless
 * gate's come from a table built once per process), then replays shots
 * from a cached no-event path:
 *
 *  - Qubits that no two-qubit operation joins stay in a product state,
 *    so each connected group gets its own register, and every step
 *    runs on its group's register alone. A two-coupler SRB run evolves
 *    two 4-amplitude registers instead of one 16-amplitude one. The
 *    counter `sim.statevector.registers` adds each run's register
 *    count; docs/PERFORMANCE.md gives the measured saving.
 *  - A stochastic event is a damping jump, a dephasing flip, a Pauli
 *    gate error, or a measurement taking its less likely outcome. Every
 *    shot's state is identical until its first event, so the run walks
 *    that shared path once, drawing no random numbers. It records each
 *    draw's threshold and keeps state checkpoints, each the
 *    concatenation of all registers, within a fixed budget (about
 *    1 MiB of summed register amplitudes; past it, a shot replays from
 *    the nearest earlier checkpoint).
 *  - A shot draws its uniforms one by one and compares each against the
 *    recorded threshold. A readout flip only flips a classical bit. At
 *    its first event the shot restores the path state at that step and
 *    resumes full simulation there, using the draw it already made.
 *
 * What stays fixed. Every shot makes the same random draws as a naive
 * per-shot interpreter of the schedule, in the same order, and every
 * state it resumes from holds the values that interpreter would have
 * computed on the same registers. Gate-error, dephasing and
 * readout-flip thresholds are plan constants, so they are bit-equal to
 * those of a single-register run. Each register normalises itself, so
 * damping and measurement thresholds, which read a qubit's excited
 * population, equal a single-register run's only to within rounding:
 * Counts could differ from one only if a draw landed within rounding of
 * such a threshold. `NoisySimulator.PinnedCountsForSeededRuns` holds
 * Counts to the hashes a single-register engine produces. The counters
 * `sim.statevector.ops_executed` and `sim.statevector.ops_skipped`
 * report how much of a run the cache saved (docs/OBSERVABILITY.md).
 */
#ifndef XTALK_SIM_NOISY_SIMULATOR_H
#define XTALK_SIM_NOISY_SIMULATOR_H

#include <functional>
#include <optional>

#include "circuit/schedule.h"
#include "common/rng.h"
#include "device/device.h"
#include "sim/counts.h"

namespace xtalk {

/** Noise toggles for ablation studies. */
struct NoisySimOptions {
    bool gate_noise = true;
    bool crosstalk = true;
    bool decoherence = true;
    bool readout_noise = true;
    uint64_t seed = 0x5EED;
};

/**
 * How to execute one circuit: the simulators interpret `shots` and
 * `seed_override`; `max_parallel_chunks` is honored by the parallel
 * runtime::Executor, which splits the shot budget into up to that many
 * independently seeded chunks (the serial engines run every shot in one
 * stream and ignore it). See docs/PARALLELISM.md.
 */
struct RunSpec {
    RunSpec() = default;
    RunSpec(int shots_,
            std::optional<uint64_t> seed_override_ = std::nullopt,
            int max_parallel_chunks_ = 1)
        : shots(shots_),
          seed_override(seed_override_),
          max_parallel_chunks(max_parallel_chunks_)
    {
    }

    int shots = 1024;
    /**
     * Reseed the simulator's generator before running; absent = keep
     * drawing from the stream where the previous run left off.
     */
    std::optional<uint64_t> seed_override;
    /**
     * Upper bound on shot-chunk parallelism for this run. Part of the
     * spec — not of the executor — because the chunk plan determines
     * the random streams: the same spec gives bit-identical Counts at
     * any thread count.
     */
    int max_parallel_chunks = 1;
};

/**
 * The paper's gate error model (constraint 7), the one the simulators
 * run and the schedule score (EstimateScheduleError) evaluates: entry i
 * is the error of gate i of @p schedule, 0 for barriers and measures. A
 * one-qubit gate fails at its calibrated rate. A two-qubit unitary, a
 * SWAP included, fails at @p independent of its coupler, or at the
 * largest @p conditional(its coupler, aggressor) over the two-qubit
 * unitaries on other couplers that overlap it in time
 * (TimedGate::Overlaps) when that is higher. The simulators pass the
 * device's calibrated and ground-truth rates, the score a
 * characterization's. Throws Error for a two-qubit gate on uncoupled
 * qubits.
 */
std::vector<double> OverlapGateErrors(
    const ScheduledCircuit& schedule, const Device& device,
    const std::function<double(EdgeId)>& independent,
    const std::function<double(EdgeId, EdgeId)>& conditional);

/**
 * Pure-dephasing time T_phi in ns, from 1/T_phi = 1/T2 - 1/(2 T1); 0
 * (no pure dephasing) when T2 is limited by T1 alone. Shared by the
 * run plan and the density replay.
 */
double PureDephasingTimeNs(double t1_ns, double t2_ns);

/**
 * The per-run setup both trajectory backends share, with the noise
 * toggles already applied: a disabled mechanism leaves no interval, a
 * zero gate error, or `readout_noise` false.
 */
struct RunPlan {
    /** One decoherence interval of one qubit. */
    struct Decay {
        int qubit = 0;          ///< Local qubit.
        double gamma = 0.0;     ///< Damping probability 1 - exp(-dt/T1).
        bool dephases = false;  ///< The qubit has pure dephasing (T_phi > 0).
        double pz = 0.0;  ///< Dephasing flip probability (1 - exp(-dt/T_phi))/2.
    };
    /** One non-barrier operation, in schedule order. */
    struct Op {
        Gate gate;                   ///< Qubits renamed to local indices.
        double error = 0.0;          ///< Effective gate error.
        double readout_error = 0.0;  ///< Measures: assignment error.
        /** decays[decay_begin, busy_begin) are the operands' idle
         *  intervals up to the start; [busy_begin, decay_end) cover the
         *  operation itself. */
        int decay_begin = 0;
        int busy_begin = 0;
        int decay_end = 0;
    };

    int width = 0;       ///< Local register size.
    int num_clbits = 1;  ///< Counts width (at least 1).
    bool readout_noise = false;
    std::vector<QubitId> device_of_local;
    std::vector<Op> ops;
    std::vector<Decay> decays;
};

/**
 * Build the shared plan of one run. Throws Error when the schedule
 * touches no qubit or measures into a classical bit outside [0, 64):
 * Counts packs each shot's outcome into 64 bits.
 */
RunPlan BuildRunPlan(const Device& device, const NoisySimOptions& options,
                     const ScheduledCircuit& schedule);

/**
 * The registers a run evolves: qubits that no chain of two-qubit
 * operations joins stay in a product state, so each connected group
 * gets a register of its own. Registers are numbered by their lowest
 * local qubit and keep local order.
 */
struct RegisterLayout {
    /** Entry q: local qubit q's register and its index there. */
    std::vector<std::pair<int, int>> slot_of_local;
    /** Qubits of each register. */
    std::vector<int> widths;
};

/** The register layout of a run of @p plan. */
RegisterLayout PlanRegisters(const RunPlan& plan);

/** Trajectory simulator bound to one device. */
class NoisySimulator {
  public:
    explicit NoisySimulator(const Device& device, NoisySimOptions options = {});

    /** Run @p spec.shots stochastic trajectories and histogram the
     *  outcomes (serially; see runtime::Executor for the parallel path). */
    Counts Run(const ScheduledCircuit& schedule, const RunSpec& spec);

    /**
     * Noise-free outcome distribution of the schedule's measured bits
     * (single state-vector pass; independent of gate timing).
     */
    std::vector<double> IdealProbabilities(const ScheduledCircuit& schedule)
        const;

    const Device& device() const { return *device_; }

  private:
    const Device* device_;
    NoisySimOptions options_;
    Rng rng_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_NOISY_SIMULATOR_H
