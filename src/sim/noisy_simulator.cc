#include "sim/noisy_simulator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <numeric>
#include <span>
#include <type_traits>

#include "common/error.h"
#include "sim/gate_matrices.h"
#include "sim/statevector.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

/** Map device qubits used by the schedule to a compact local register. */
struct QubitCompaction {
    std::vector<int> local_of_device;  ///< -1 = untouched.
    std::vector<QubitId> device_of_local;

    explicit
    QubitCompaction(const ScheduledCircuit& schedule)
        : local_of_device(schedule.num_qubits(), -1)
    {
        for (const TimedGate& tg : schedule.gates()) {
            for (QubitId q : tg.gate.qubits) {
                int& local = local_of_device[q];
                if (local < 0) {
                    local = static_cast<int>(device_of_local.size());
                    device_of_local.push_back(q);
                }
            }
        }
    }

    int
    Local(QubitId device_qubit) const
    {
        return local_of_device[device_qubit];
    }
};

/** Remap a gate's qubits into the compact register. */
Gate
LocalizeGate(const Gate& gate, const QubitCompaction& compact)
{
    Gate local = gate;
    for (QubitId& q : local.qubits) {
        q = compact.Local(q);
    }
    return local;
}

/** Gate kinds, for tables keyed by kind (kMeasure is the last kind). */
constexpr size_t kNumGateKinds = static_cast<size_t>(GateKind::kMeasure) + 1;

/**
 * Coefficients of every parameterless unitary kind, keyed by kind and
 * built once per process from GateUnitary, so they hold the same values
 * a per-gate GateUnitary would. Trivially destructible: no exit-time
 * destructor runs while a pool worker may still read it.
 */
struct FixedUnitaries {
    std::array<bool, kNumGateKinds> has_1q{};
    std::array<bool, kNumGateKinds> has_2q{};
    std::array<Unitary1Q, kNumGateKinds> coeffs_1q{};
    std::array<Unitary2Q, kNumGateKinds> coeffs_2q{};

    static const FixedUnitaries&
    Get()
    {
        static const FixedUnitaries table = [] {
            FixedUnitaries t;
            for (size_t k = 0; k < kNumGateKinds; ++k) {
                const GateKind kind = static_cast<GateKind>(k);
                if (kind == GateKind::kBarrier ||
                    kind == GateKind::kMeasure ||
                    GateKindNumParams(kind) != 0) {
                    continue;
                }
                Gate gate;
                gate.kind = kind;
                if (GateKindNumQubits(kind) == 1) {
                    gate.qubits = {0};
                    t.has_1q[k] = true;
                    t.coeffs_1q[k] = ToUnitary1Q(GateUnitary(gate));
                } else {
                    gate.qubits = {0, 1};
                    t.has_2q[k] = true;
                    t.coeffs_2q[k] = ToUnitary2Q(GateUnitary(gate));
                }
            }
            return t;
        }();
        return table;
    }
};
static_assert(std::is_trivially_destructible_v<FixedUnitaries>);

/** X, Y and Z coefficients at indices 1 to 3, as in a Pauli-error pick;
 *  index 0 (identity) is never applied. */
std::array<const Unitary1Q*, 4>
PauliCoefficients()
{
    const FixedUnitaries& fixed = FixedUnitaries::Get();
    auto of = [&](GateKind kind) {
        return &fixed.coeffs_1q[static_cast<size_t>(kind)];
    };
    return {nullptr, of(GateKind::kX), of(GateKind::kY), of(GateKind::kZ)};
}

/** State checkpoints one run may keep for its no-event path. */
constexpr size_t kCheckpointBudgetBytes = size_t{1} << 20;

/**
 * One run of the state-vector engine: the plan compiled into kernel
 * steps on one register per independent qubit group, and the cached
 * no-event path its shots replay (see the file comment of
 * noisy_simulator.h).
 */
class Trajectory {
  public:
    explicit Trajectory(const RunPlan& plan);

    /** Independent qubit groups, each evolved in its own register. */
    int num_registers() const { return static_cast<int>(registers_.size()); }

    /** Walk the no-event path once, drawing nothing: record every
     *  draw's threshold and the checkpoints. */
    void CachePath();

    /** Run one shot; returns its classical bits. */
    uint64_t Shot(Rng& rng);

    /** Kernel applications this run made (path, replays, post-event). */
    uint64_t ops_executed() const { return executed_; }
    /** Kernel applications shots took from the cached path instead. */
    uint64_t ops_skipped() const { return skipped_; }

  private:
    enum class Kind : uint8_t {
        kUnitary1Q,
        kUnitary2Q,
        kDamp,        ///< Damping jump or no-jump on q0.
        kDephase,     ///< Z on q0 with probability p.
        kPauliError,  ///< Random Pauli on q0 (and q1) with probability p.
        kMeasure,     ///< Project q0; then an optional readout flip.
    };

    /** One step; its first draw, if any, decides whether an event
     *  happens in it. Its qubits are indices within register `reg`. */
    struct Step {
        Kind kind;
        bool readout = false;   ///< kMeasure: a readout-flip draw follows.
        bool path_one = false;  ///< kMeasure: outcome on the no-event path.
        int reg = 0;
        int q0 = 0;
        int q1 = -1;  ///< Second operand of a two-qubit unitary or error.
        int cbit = 0;
        double p = 0.0;     ///< Damping gamma, flip, error or readout prob.
        double keep = 0.0;  ///< kDamp: sqrt(1 - gamma).
        const Unitary1Q* u1q = nullptr;  ///< kUnitary1Q coefficients.
        const Unitary2Q* u2q = nullptr;  ///< kUnitary2Q coefficients.
    };

    /** One draw on the no-event path: which side of `threshold` is an
     *  event, and which clbits a non-event sets. */
    struct Draw {
        double threshold;
        uint32_t step;
        int32_t checkpoint;  ///< Latest at or before `step`; -1 = |0...0>.
        bool event_below;    ///< u < threshold is an event.
        bool event_above;    ///< u >= threshold is an event.
        uint64_t bits_below;
        uint64_t bits_above;
    };

    static bool
    ChangesState(Kind kind)
    {
        return kind == Kind::kUnitary1Q || kind == Kind::kUnitary2Q ||
               kind == Kind::kDamp || kind == Kind::kMeasure;
    }

    static bool
    CanEvent(Kind kind)
    {
        return kind != Kind::kUnitary1Q && kind != Kind::kUnitary2Q;
    }

    /** A step on local qubit @p q0 (and @p q1), placed in their register. */
    Step MakeStep(Kind kind, int q0, int q1 = -1) const;
    void AddDecay(const RunPlan::Decay& decay);
    void ApplyUnitary(const Step& step);
    void Reset();
    void Resume(const Draw& draw, double u, Rng& rng, uint64_t* bits);

    /** Register and index within it of each local qubit. */
    std::vector<std::pair<int, int>> slot_of_local_;
    std::vector<StateVector> registers_;
    std::vector<Step> steps_;
    /** Coefficients of the parameterized gates; a deque, so steps can
     *  point into it. */
    std::deque<Unitary1Q> own_1q_;
    std::vector<Draw> draws_;
    /** Checkpoint c holds the path state before step checkpoint_step_[c],
     *  reached after checkpoint_ops_[c] kernel applications: every
     *  register's amplitudes, concatenated in register order. */
    std::vector<size_t> checkpoint_step_;
    std::vector<uint64_t> checkpoint_ops_;
    std::vector<Complex> checkpoints_;
    size_t dimension_ = 0;  ///< Summed dimension of the registers.
    uint64_t path_ops_ = 0;
    uint64_t executed_ = 0;
    uint64_t skipped_ = 0;
};

Trajectory::Trajectory(const RunPlan& plan)
{
    RegisterLayout layout = PlanRegisters(plan);
    slot_of_local_ = std::move(layout.slot_of_local);
    for (int width : layout.widths) {
        registers_.emplace_back(width);
        dimension_ += registers_.back().dimension();
    }

    const FixedUnitaries& fixed = FixedUnitaries::Get();
    for (const RunPlan::Op& op : plan.ops) {
        const Gate& gate = op.gate;
        for (int d = op.decay_begin; d < op.busy_begin; ++d) {
            AddDecay(plan.decays[d]);
        }
        if (gate.IsMeasure()) {
            // Decay during the readout window, then project, then the
            // classical assignment error.
            for (int d = op.busy_begin; d < op.decay_end; ++d) {
                AddDecay(plan.decays[d]);
            }
            Step step = MakeStep(Kind::kMeasure, gate.qubits[0]);
            step.readout = plan.readout_noise;
            step.cbit = gate.cbit;
            step.p = op.readout_error;
            steps_.push_back(step);
            continue;
        }
        const int q1 = gate.qubits.size() == 2 ? gate.qubits[1] : -1;
        if (gate.kind != GateKind::kI) {
            const size_t k = static_cast<size_t>(gate.kind);
            Step step = MakeStep(Kind::kUnitary1Q, gate.qubits[0], q1);
            if (q1 < 0) {
                step.u1q = fixed.has_1q[k]
                               ? &fixed.coeffs_1q[k]
                               : &own_1q_.emplace_back(
                                     ToUnitary1Q(GateUnitary(gate)));
            } else {
                // Every two-qubit kind is parameterless.
                XTALK_ASSERT(fixed.has_2q[k], "no two-qubit unitary for "
                                                  << xtalk::ToString(gate));
                step.kind = Kind::kUnitary2Q;
                step.u2q = &fixed.coeffs_2q[k];
            }
            steps_.push_back(step);
        }
        if (op.error > 0.0) {
            Step step = MakeStep(Kind::kPauliError, gate.qubits[0], q1);
            step.p = op.error;
            steps_.push_back(step);
        }
        for (int d = op.busy_begin; d < op.decay_end; ++d) {
            AddDecay(plan.decays[d]);
        }
    }
}

Trajectory::Step
Trajectory::MakeStep(Kind kind, int q0, int q1) const
{
    Step step{kind};
    step.reg = slot_of_local_[q0].first;
    step.q0 = slot_of_local_[q0].second;
    step.q1 = q1 < 0 ? -1 : slot_of_local_[q1].second;
    return step;
}

void
Trajectory::AddDecay(const RunPlan::Decay& decay)
{
    XTALK_REQUIRE(decay.gamma >= 0.0 && decay.gamma <= 1.0,
                  "gamma " << decay.gamma << " outside [0, 1]");
    if (decay.gamma > 0.0) {
        Step step = MakeStep(Kind::kDamp, decay.qubit);
        step.p = decay.gamma;
        step.keep = std::sqrt(1.0 - decay.gamma);
        steps_.push_back(step);
    }
    if (decay.dephases) {
        XTALK_REQUIRE(decay.pz >= 0.0 && decay.pz <= 0.5 + 1e-12,
                      "dephasing probability " << decay.pz
                                               << " outside [0, 0.5]");
        if (decay.pz > 0.0) {
            Step step = MakeStep(Kind::kDephase, decay.qubit);
            step.p = decay.pz;
            steps_.push_back(step);
        }
    }
}

void
Trajectory::ApplyUnitary(const Step& step)
{
    StateVector& sv = registers_[step.reg];
    if (step.kind == Kind::kUnitary1Q) {
        sv.Apply1Q(step.q0, *step.u1q);
    } else {
        sv.Apply2Q(step.q0, step.q1, *step.u2q);
    }
}

void
Trajectory::Reset()
{
    for (StateVector& sv : registers_) {
        sv.Reset();
    }
}

void
Trajectory::CachePath()
{
    // Count the distinct states a draw can resume from, then keep every
    // stride-th of them so the checkpoints fit the budget. The initial
    // |0...0> needs no checkpoint.
    size_t distinct = 0;
    bool changed = false;
    for (const Step& step : steps_) {
        if (CanEvent(step.kind) && changed) {
            ++distinct;
            changed = false;
        }
        changed = changed || ChangesState(step.kind);
    }
    const size_t capacity =
        kCheckpointBudgetBytes / (dimension_ * sizeof(Complex));
    const size_t stride =
        capacity == 0 ? 0 : std::max<size_t>(1, (distinct + capacity - 1) /
                                                    capacity);

    if (stride > 0) {
        checkpoints_.reserve(distinct / stride * dimension_);
    }
    Reset();
    changed = false;
    size_t seen = 0;
    int32_t checkpoint = -1;
    uint64_t ops = 0;
    auto add_draw = [&](size_t step, double threshold, bool event_below,
                        bool event_above, uint64_t bits_below,
                        uint64_t bits_above) {
        draws_.push_back(Draw{threshold, static_cast<uint32_t>(step),
                              checkpoint, event_below, event_above,
                              bits_below, bits_above});
    };
    for (size_t s = 0; s < steps_.size(); ++s) {
        Step& step = steps_[s];
        StateVector& sv = registers_[step.reg];
        if (CanEvent(step.kind) && changed) {
            changed = false;
            if (stride > 0 && ++seen % stride == 0) {
                checkpoint = static_cast<int32_t>(checkpoint_step_.size());
                checkpoint_step_.push_back(s);
                checkpoint_ops_.push_back(ops);
                for (const StateVector& reg : registers_) {
                    checkpoints_.insert(checkpoints_.end(),
                                        reg.amplitudes().begin(),
                                        reg.amplitudes().end());
                }
            }
        }
        // A draw that is an event for every u in [0, 1) ends the path:
        // no shot continues past it without an event.
        bool ends_path = false;
        switch (step.kind) {
          case Kind::kUnitary1Q:
          case Kind::kUnitary2Q:
            ApplyUnitary(step);
            break;
          case Kind::kDamp: {
            const double p_jump = step.p * sv.ProbabilityOne(step.q0);
            add_draw(s, p_jump, true, false, 0, 0);
            ends_path = p_jump >= 1.0;
            if (!ends_path) {
                sv.DampNoJump(step.q0, step.keep);
            }
            break;
          }
          case Kind::kDephase:
          case Kind::kPauliError:
            add_draw(s, step.p, true, false, 0, 0);
            ends_path = step.p >= 1.0;
            break;
          case Kind::kMeasure: {
            // u < p1 reads 1; the path takes the more likely outcome.
            const double p1 = sv.ProbabilityOne(step.q0);
            step.path_one = p1 > 0.5;
            const uint64_t bit = uint64_t{1} << step.cbit;
            const uint64_t read = step.path_one ? bit : 0;
            if (step.readout) {
                add_draw(s, p1, !step.path_one, step.path_one, 0, 0);
                add_draw(s, step.p, false, false, read ^ bit, read);
            } else {
                add_draw(s, p1, !step.path_one, step.path_one, read, read);
            }
            sv.Collapse(step.q0, step.path_one);
            break;
          }
        }
        if (ends_path) {
            break;
        }
        if (ChangesState(step.kind)) {
            ++ops;
            changed = true;
        }
    }
    path_ops_ = ops;
    executed_ += ops;
}

uint64_t
Trajectory::Shot(Rng& rng)
{
    uint64_t bits = 0;
    for (const Draw& draw : draws_) {
        const double u = rng.Uniform();
        const bool below = u < draw.threshold;
        if (below ? draw.event_below : draw.event_above) {
            Resume(draw, u, rng, &bits);
            return bits;
        }
        bits |= below ? draw.bits_below : draw.bits_above;
    }
    skipped_ += path_ops_;
    return bits;
}

void
Trajectory::Resume(const Draw& draw, double u, Rng& rng, uint64_t* bits)
{
    // Restore the path state before the event's step: load the nearest
    // checkpoint and replay the no-event path up to the step.
    size_t s = 0;
    if (draw.checkpoint < 0) {
        Reset();
    } else {
        const size_t c = static_cast<size_t>(draw.checkpoint);
        size_t offset = c * dimension_;
        for (StateVector& sv : registers_) {
            sv.Load(std::span<const Complex>(checkpoints_)
                        .subspan(offset, sv.dimension()));
            offset += sv.dimension();
        }
        s = checkpoint_step_[c];
        skipped_ += checkpoint_ops_[c];
    }
    for (; s < draw.step; ++s) {
        const Step& step = steps_[s];
        StateVector& sv = registers_[step.reg];
        switch (step.kind) {
          case Kind::kUnitary1Q:
          case Kind::kUnitary2Q:
            ApplyUnitary(step);
            break;
          case Kind::kDamp:
            sv.DampNoJump(step.q0, step.keep);
            break;
          case Kind::kMeasure:
            sv.Collapse(step.q0, step.path_one);
            break;
          case Kind::kDephase:
          case Kind::kPauliError:
            continue;
        }
        ++executed_;
    }

    // Full simulation from the event on. The event's step uses the draw
    // the shot already made; every later draw comes from the stream.
    bool pending = true;
    auto next = [&] {
        if (pending) {
            pending = false;
            return u;
        }
        return rng.Uniform();
    };
    const std::array<const Unitary1Q*, 4> pauli = PauliCoefficients();
    for (; s < steps_.size(); ++s) {
        const Step& step = steps_[s];
        StateVector& sv = registers_[step.reg];
        switch (step.kind) {
          case Kind::kUnitary1Q:
          case Kind::kUnitary2Q:
            ApplyUnitary(step);
            break;
          case Kind::kDamp:
            if (next() < step.p * sv.ProbabilityOne(step.q0)) {
                sv.DampJump(step.q0);
            } else {
                sv.DampNoJump(step.q0, step.keep);
            }
            break;
          case Kind::kDephase:
            if (!(next() < step.p)) {
                continue;
            }
            sv.Apply1Q(step.q0, *pauli[3]);
            break;
          case Kind::kPauliError: {
            if (!(next() < step.p)) {
                continue;
            }
            // Uniform non-identity Pauli string: 4^k - 1 choices.
            int pick = static_cast<int>(
                           rng.UniformInt(step.q1 < 0 ? 3 : 15)) + 1;
            for (int q : {step.q0, step.q1}) {
                if (q < 0) {
                    break;
                }
                const int p = pick & 3;
                pick >>= 2;
                if (p != 0) {
                    sv.Apply1Q(q, *pauli[p]);
                    ++executed_;
                }
            }
            continue;
          }
          case Kind::kMeasure: {
            bool outcome = next() < sv.ProbabilityOne(step.q0);
            sv.Collapse(step.q0, outcome);
            if (step.readout && rng.Bernoulli(step.p)) {
                outcome = !outcome;
            }
            if (outcome) {
                *bits |= uint64_t{1} << step.cbit;
            }
            break;
          }
        }
        ++executed_;
    }
}

}  // namespace

double
PureDephasingTimeNs(double t1_ns, double t2_ns)
{
    const double inv = 1.0 / t2_ns - 1.0 / (2.0 * t1_ns);
    if (inv <= 0.0) {
        return 0.0;  // No pure dephasing.
    }
    return 1.0 / inv;
}

RegisterLayout
PlanRegisters(const RunPlan& plan)
{
    // Union the local qubits over the two-qubit operations.
    std::vector<int> root(plan.width);
    std::iota(root.begin(), root.end(), 0);
    auto find = [&](int q) {
        while (root[q] != q) {
            q = root[q] = root[root[q]];
        }
        return q;
    };
    for (const RunPlan::Op& op : plan.ops) {
        if (op.gate.qubits.size() == 2) {
            root[find(op.gate.qubits[1])] = find(op.gate.qubits[0]);
        }
    }
    std::vector<int> register_of_root(plan.width, -1);
    RegisterLayout layout;
    layout.slot_of_local.reserve(plan.width);
    for (int q = 0; q < plan.width; ++q) {
        int& reg = register_of_root[find(q)];
        if (reg < 0) {
            reg = static_cast<int>(layout.widths.size());
            layout.widths.push_back(0);
        }
        layout.slot_of_local.emplace_back(reg, layout.widths[reg]++);
    }
    return layout;
}

std::vector<double>
OverlapGateErrors(const ScheduledCircuit& schedule, const Device& device,
                  const std::function<double(EdgeId)>& independent,
                  const std::function<double(EdgeId, EdgeId)>& conditional)
{
    const std::vector<TimedGate>& gates = schedule.gates();
    std::vector<double> errors(gates.size(), 0.0);
    // The two-qubit unitaries, in start order, and their couplers.
    std::vector<std::pair<int, EdgeId>> coupled;
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate& gate = gates[i].gate;
        if (gate.IsBarrier() || gate.IsMeasure()) {
            continue;
        }
        if (!gate.IsTwoQubitUnitary()) {
            errors[i] = device.GateError(gate);
            continue;
        }
        const EdgeId edge =
            device.topology().FindEdge(gate.qubits[0], gate.qubits[1]);
        XTALK_REQUIRE(edge >= 0, "two-qubit gate on uncoupled qubits: "
                                     << xtalk::ToString(gate));
        errors[i] = independent(edge);
        coupled.emplace_back(static_cast<int>(i), edge);
    }
    // Gates are sorted by start, so every gate overlapping gate a that
    // starts after it starts before a ends: each overlapping pair is met
    // once, from its earlier gate.
    for (size_t a = 0; a < coupled.size(); ++a) {
        const auto [first, first_edge] = coupled[a];
        for (size_t b = a + 1; b < coupled.size(); ++b) {
            const auto [second, second_edge] = coupled[b];
            if (gates[second].start_ns >= gates[first].end_ns()) {
                break;
            }
            if (first_edge == second_edge ||
                !TimedGate::Overlaps(gates[first], gates[second])) {
                continue;
            }
            errors[first] = std::max(errors[first],
                                     conditional(first_edge, second_edge));
            errors[second] = std::max(errors[second],
                                      conditional(second_edge, first_edge));
        }
    }
    return errors;
}

RunPlan
BuildRunPlan(const Device& device, const NoisySimOptions& options,
             const ScheduledCircuit& schedule)
{
    const QubitCompaction compact(schedule);
    RunPlan plan;
    plan.width = static_cast<int>(compact.device_of_local.size());
    XTALK_REQUIRE(plan.width > 0, "schedule touches no qubits");
    plan.device_of_local = compact.device_of_local;
    plan.readout_noise = options.readout_noise;
    // Computed even with gate noise off: it also rejects a two-qubit
    // gate on uncoupled qubits.
    const std::vector<double> errors = OverlapGateErrors(
        schedule, device, [&](EdgeId edge) { return device.CxError(edge); },
        [&](EdgeId victim, EdgeId aggressor) {
            return options.crosstalk
                       ? device.ConditionalCxError(victim, aggressor)
                       : device.CxError(victim);
        });

    // Per-local-qubit decoherence parameters; clocks start at each
    // qubit's first operation (0 for a qubit only barriers touch).
    std::vector<double> t1_ns(plan.width), tphi_ns(plan.width);
    std::vector<double> clock(plan.width, -1.0);
    for (const TimedGate& tg : schedule.gates()) {
        if (tg.gate.IsBarrier()) {
            continue;
        }
        for (QubitId q : tg.gate.qubits) {
            double& first = clock[compact.Local(q)];
            if (first < 0.0 || tg.start_ns < first) {
                first = tg.start_ns;
            }
        }
    }
    for (int local = 0; local < plan.width; ++local) {
        const QubitId q = plan.device_of_local[local];
        t1_ns[local] = device.T1us(q) * 1000.0;
        tphi_ns[local] =
            PureDephasingTimeNs(t1_ns[local], device.T2us(q) * 1000.0);
        clock[local] = std::max(clock[local], 0.0);
    }
    auto add_decay = [&](int local, double from, double to) {
        if (!options.decoherence || to <= from) {
            return;
        }
        const double dt = to - from;
        RunPlan::Decay decay;
        decay.qubit = local;
        decay.gamma = 1.0 - std::exp(-dt / t1_ns[local]);
        decay.dephases = tphi_ns[local] > 0.0;
        if (decay.dephases) {
            decay.pz = 0.5 * (1.0 - std::exp(-dt / tphi_ns[local]));
        }
        plan.decays.push_back(decay);
    };

    plan.ops.reserve(schedule.size());
    for (int i = 0; i < schedule.size(); ++i) {
        const TimedGate& tg = schedule.gates()[i];
        if (tg.gate.IsBarrier()) {
            continue;
        }
        RunPlan::Op op;
        op.gate = LocalizeGate(tg.gate, compact);
        const double end_ns = tg.end_ns();
        op.decay_begin = static_cast<int>(plan.decays.size());
        for (QubitId lq : op.gate.qubits) {
            add_decay(lq, clock[lq], tg.start_ns);
        }
        op.busy_begin = static_cast<int>(plan.decays.size());
        for (QubitId lq : op.gate.qubits) {
            add_decay(lq, tg.start_ns, end_ns);
            clock[lq] = end_ns;
        }
        op.decay_end = static_cast<int>(plan.decays.size());
        if (op.gate.IsMeasure()) {
            const int cbit = op.gate.cbit;
            XTALK_REQUIRE(cbit >= 0 && cbit < 64,
                          "measure into clbit " << cbit
                                                << ": the simulators "
                                                   "record clbits 0..63");
            plan.num_clbits = std::max(plan.num_clbits, cbit + 1);
            op.readout_error = device.ReadoutError(tg.gate.qubits[0]);
        } else {
            op.error = options.gate_noise ? errors[i] : 0.0;
        }
        plan.ops.push_back(std::move(op));
    }
    return plan;
}

NoisySimulator::NoisySimulator(const Device& device, NoisySimOptions options)
    : device_(&device), options_(options), rng_(options.seed)
{
}

Counts
NoisySimulator::Run(const ScheduledCircuit& schedule, const RunSpec& spec)
{
    const int shots = spec.shots;
    XTALK_REQUIRE(shots > 0, "shots must be positive");
    if (spec.seed_override) {
        rng_ = Rng(*spec.seed_override);
    }
    telemetry::ScopedSpan span("sim.statevector.run");
    if (telemetry::Enabled()) {
        telemetry::SetLabel("sim.backend", "statevector");
        telemetry::GetCounter("sim.statevector.runs").Add(1);
        telemetry::GetCounter("sim.statevector.shots")
            .Add(static_cast<uint64_t>(shots));
        telemetry::GetCounter("sim.shots")
            .Add(static_cast<uint64_t>(shots));
    }
    int num_clbits = 1;
    Trajectory trajectory = [&] {
        telemetry::ScopedSpan plan_span("sim.statevector.plan");
        const RunPlan plan = BuildRunPlan(*device_, options_, schedule);
        XTALK_REQUIRE(plan.width <= 22, "schedule touches "
                                            << plan.width
                                            << " qubits; max 22");
        if (telemetry::Enabled()) {
            uint64_t unitaries = 0, measures = 0;
            for (const RunPlan::Op& op : plan.ops) {
                ++(op.gate.IsMeasure() ? measures : unitaries);
            }
            telemetry::GetCounter("sim.statevector.gate_applications")
                .Add(unitaries * static_cast<uint64_t>(shots));
            telemetry::GetCounter("sim.statevector.measurements")
                .Add(measures * static_cast<uint64_t>(shots));
        }
        num_clbits = plan.num_clbits;
        return Trajectory(plan);
    }();
    {
        telemetry::ScopedSpan path_span("sim.statevector.path");
        trajectory.CachePath();
    }
    Counts counts(num_clbits);
    {
        telemetry::ScopedSpan shots_span("sim.statevector.shots");
        std::vector<uint64_t> outcomes(static_cast<size_t>(shots));
        for (uint64_t& bits : outcomes) {
            bits = trajectory.Shot(rng_);
        }
        counts.RecordShots(outcomes);
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sim.statevector.registers")
            .Add(static_cast<uint64_t>(trajectory.num_registers()));
        telemetry::GetCounter("sim.statevector.ops_executed")
            .Add(trajectory.ops_executed());
        telemetry::GetCounter("sim.statevector.ops_skipped")
            .Add(trajectory.ops_skipped());
    }
    return counts;
}

std::vector<double>
NoisySimulator::IdealProbabilities(const ScheduledCircuit& schedule) const
{
    const QubitCompaction compact(schedule);
    const int width = static_cast<int>(compact.device_of_local.size());
    XTALK_REQUIRE(width > 0 && width <= 22, "bad schedule width " << width);
    StateVector sv(width);
    std::vector<std::pair<int, int>> measures;  // (local qubit, cbit)
    for (const TimedGate& tg : schedule.gates()) {
        const Gate local = LocalizeGate(tg.gate, compact);
        if (local.IsMeasure()) {
            measures.push_back({local.qubits[0], local.cbit});
            continue;
        }
        if (!local.IsBarrier()) {
            sv.ApplyGate(local);
        }
    }
    int num_clbits = 1;
    for (const auto& [q, c] : measures) {
        num_clbits = std::max(num_clbits, c + 1);
    }
    std::vector<double> out(size_t{1} << num_clbits, 0.0);
    const std::vector<double> basis_probs = sv.Probabilities();
    for (size_t basis = 0; basis < basis_probs.size(); ++basis) {
        uint64_t bits = 0;
        for (const auto& [q, c] : measures) {
            if ((basis >> q) & 1) {
                bits |= 1ull << c;
            }
        }
        out[bits] += basis_probs[basis];
    }
    return out;
}

}  // namespace xtalk
