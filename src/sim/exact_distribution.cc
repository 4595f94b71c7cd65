#include "sim/exact_distribution.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <type_traits>

#include "common/error.h"
#include "sim/gate_matrices.h"
#include "sim/statevector.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

/** Most joint outcomes one sampling group holds. */
constexpr size_t kMaxGroupOutcomes = 4096;

/** The @p n-th index whose bits in @p masks (single bits, ascending)
 *  are all clear. */
template <size_t N>
size_t
InsertZeros(size_t n, const std::array<size_t, N>& masks)
{
    for (size_t mask : masks) {
        n = ((n & ~(mask - 1)) << 1) | (n & (mask - 1));
    }
    return n;
}

/**
 * A one-qubit channel's Pauli transfer matrix: row-major 4x4 over the
 * Pauli digits I, X, Y, Z (0 to 3), so out[a] = sum_b ptm[4a + b] in[b]
 * for the coefficients in = Tr(sigma_b rho) of the qubit.
 */
using Ptm = std::array<double, 16>;

/** sigma -> U sigma U^dagger: the rotation of the Bloch vector. */
Ptm
UnitaryPtm(const Unitary1Q& u)
{
    Ptm ptm{};
    ptm[0] = 1.0;
    const std::array<Unitary1Q, 3> paulis{
        Unitary1Q{0.0, 1.0, 1.0, 0.0},
        Unitary1Q{0.0, Complex(0.0, -1.0), Complex(0.0, 1.0), 0.0},
        Unitary1Q{1.0, 0.0, 0.0, -1.0}};
    for (int b = 1; b <= 3; ++b) {
        const Unitary1Q& sigma = paulis[b - 1];
        // M = U sigma U^dagger = x X + y Y + z Z: M10 = x + i y, M00 = z.
        auto m = [&](int r, int c) {
            Complex sum = 0.0;
            for (int j = 0; j < 2; ++j) {
                for (int k = 0; k < 2; ++k) {
                    sum += u[2 * r + j] * sigma[2 * j + k] *
                           std::conj(u[2 * c + k]);
                }
            }
            return sum;
        };
        const Complex m10 = m(1, 0);
        ptm[4 * 1 + b] = m10.real();
        ptm[4 * 2 + b] = m10.imag();
        ptm[4 * 3 + b] = m(0, 0).real();
    }
    return ptm;
}

/** Amplitude damping by @p gamma, then a Z flip with probability
 *  @p pz: Z relaxes toward +1, X and Y shrink. */
Ptm
DecayPtm(double gamma, double pz)
{
    const double coherence = std::sqrt(1.0 - gamma) * (1.0 - 2.0 * pz);
    Ptm ptm{};
    ptm[0] = 1.0;
    ptm[5] = coherence;
    ptm[10] = coherence;
    ptm[12] = gamma;
    ptm[15] = 1.0 - gamma;
    return ptm;
}

/** A uniform non-identity Pauli with probability @p p: X, Y and Z each
 *  keep (1 - 4p/3) of themselves. */
Ptm
DepolarizePtm(double p)
{
    const double keep = 1.0 - 4.0 * p / 3.0;
    Ptm ptm{};
    ptm[0] = 1.0;
    ptm[5] = keep;
    ptm[10] = keep;
    ptm[15] = keep;
    return ptm;
}

/** @p second after @p first. */
Ptm
Compose(const Ptm& second, const Ptm& first)
{
    Ptm out{};
    for (int r = 0; r < 4; ++r) {
        for (int k = 0; k < 4; ++k) {
            for (int c = 0; c < 4; ++c) {
                out[4 * r + c] += second[4 * r + k] * first[4 * k + c];
            }
        }
    }
    return out;
}

/**
 * A Clifford two-qubit unitary's transfer matrix: it maps each Pauli to
 * a signed Pauli, so out[A] = sign[A] in[source[A]], where the digit of
 * the gate's first qubit is A % 4 and of its second A / 4.
 */
struct SignedPermutation {
    std::array<int, 16> source{};
    std::array<double, 16> sign{};
};

/** The transfer matrices of CX, CZ and SWAP, built once per process from
 *  GateUnitary. Trivially destructible, like the trajectory engine's
 *  FixedUnitaries. */
const SignedPermutation&
TwoQubitPtm(GateKind kind)
{
    static constexpr size_t kKinds = static_cast<size_t>(GateKind::kMeasure);
    static const std::array<SignedPermutation, kKinds> table = [] {
        const std::array<Matrix, 4> paulis{MatI(), MatX(), MatY(), MatZ()};
        auto pauli = [&](int index) {
            Matrix out(4, 4);
            for (size_t r = 0; r < 4; ++r) {
                for (size_t c = 0; c < 4; ++c) {
                    out(r, c) = paulis[index % 4](r & 1, c & 1) *
                                paulis[index / 4](r >> 1, c >> 1);
                }
            }
            return out;
        };
        std::array<SignedPermutation, kKinds> t{};
        for (GateKind k : {GateKind::kCX, GateKind::kCZ, GateKind::kSwap}) {
            Gate gate;
            gate.kind = k;
            gate.qubits = {0, 1};
            const Matrix u = GateUnitary(gate);
            const Matrix u_dagger = u.Dagger();
            SignedPermutation& ptm = t[static_cast<size_t>(k)];
            for (int b = 0; b < 16; ++b) {
                const Matrix image = u * pauli(b) * u_dagger;
                for (int a = 0; a < 16; ++a) {
                    const double entry =
                        (pauli(a) * image).Trace().real() / 4.0;
                    if (std::abs(entry) > 0.5) {
                        ptm.source[a] = b;
                        ptm.sign[a] = entry > 0.0 ? 1.0 : -1.0;
                    }
                }
            }
        }
        return t;
    }();
    XTALK_ASSERT(kind == GateKind::kCX || kind == GateKind::kCZ ||
                     kind == GateKind::kSwap,
                 "no two-qubit transfer matrix for gate kind "
                     << static_cast<int>(kind));
    return table[static_cast<size_t>(kind)];
}
static_assert(std::is_trivially_destructible_v<SignedPermutation>);

/** A measured qubit: its index in its register, its classical bit and
 *  its assignment error (0 without readout noise). */
struct Readout {
    int qubit;
    int cbit;
    double error;
};

/**
 * The density matrix of one register in the Pauli basis:
 * rho = 2^-width sum_a c_a sigma_a, with the real coefficient of the
 * Pauli string a at index sum_q a_q 4^q (qubit q owns bits 2q and
 * 2q + 1). A one-qubit channel mixes the four coefficients that differ
 * in one digit; a Clifford two-qubit unitary, with its depolarizing
 * error, moves and scales sixteen.
 *
 * One-qubit channels are queued per qubit and composed, and act in one
 * pass when a two-qubit operation next needs the qubit, or at the end.
 * A channel on one qubit commutes with everything on the others, so the
 * deferral is exact; it saves most passes over the 4^width entries.
 */
class PauliDensity {
  public:
    /** |0...0>: every string of I and Z has coefficient 1. */
    explicit PauliDensity(int width)
        : width_(width), c_(size_t{1} << (2 * width), 0.0), pending_(width)
    {
        for (size_t z = 0; z < (size_t{1} << width); ++z) {
            c_[ZString(z)] = 1.0;
        }
    }

    /** Queue a one-qubit channel on @p q. */
    void
    Channel(int q, const Ptm& ptm)
    {
        std::optional<Ptm>& pending = pending_[q];
        pending = pending ? Compose(ptm, *pending) : ptm;
    }

    /**
     * A Clifford two-qubit unitary on (@p q0, @p q1), then a uniform
     * non-identity two-qubit Pauli with probability @p error, which
     * keeps (1 - 16p/15) of every string that is not I on both.
     */
    void
    TwoQubit(int q0, int q1, const SignedPermutation& ptm, double error)
    {
        Flush(q0);
        Flush(q1);
        const size_t s0 = size_t{1} << (2 * q0);
        const size_t s1 = size_t{1} << (2 * q1);
        std::array<size_t, 16> offset;
        std::array<double, 16> scale;
        for (int a = 0; a < 16; ++a) {
            offset[a] = (a % 4) * s0 + (a / 4) * s1;
            scale[a] = ptm.sign[a] * (a == 0 ? 1.0 : 1.0 - 16.0 * error / 15.0);
        }
        const size_t low = std::min(s0, s1);
        const size_t high = std::max(s0, s1);
        const std::array<size_t, 4> masks{low, 2 * low, high, 2 * high};
        std::array<double, 16> in;
        for (size_t n = 0; n < c_.size() / 16; ++n) {
            const size_t i = InsertZeros(n, masks);
            for (int a = 0; a < 16; ++a) {
                in[a] = c_[i + offset[a]];
            }
            for (int a = 0; a < 16; ++a) {
                c_[i + offset[a]] = scale[a] * in[ptm.source[a]];
            }
        }
    }

    /**
     * Outcome probabilities of the @p measured qubits, each read with
     * its assignment error (index bit k is measured[k]'s outcome).
     * Only strings of I and Z on the measured qubits, and I elsewhere,
     * reach the diagonal: p(y) = 2^-m sum_z c_z (-1)^{|y & z|}, a
     * Walsh-Hadamard transform, and a flip with probability e keeps
     * (1 - 2e) of the qubit's Z.
     */
    std::vector<double>
    Marginal(const std::vector<Readout>& measured)
    {
        for (int q = 0; q < width_; ++q) {
            Flush(q);
        }
        const size_t m = measured.size();
        std::vector<double> p(size_t{1} << m);
        for (size_t z = 0; z < p.size(); ++z) {
            size_t index = 0;
            double keep = 1.0;
            for (size_t k = 0; k < m; ++k) {
                if ((z >> k) & 1) {
                    index |= size_t{3} << (2 * measured[k].qubit);
                    keep *= 1.0 - 2.0 * measured[k].error;
                }
            }
            p[z] = keep * c_[index];
        }
        for (size_t half = 1; half < p.size(); half *= 2) {
            for (size_t y = 0; y < p.size(); ++y) {
                if (y & half) {
                    continue;
                }
                const double a = p[y];
                const double b = p[y | half];
                p[y] = a + b;
                p[y | half] = a - b;
            }
        }
        for (double& x : p) {
            x /= static_cast<double>(p.size());
        }
        return p;
    }

  private:
    /** Index of the string with Z on the qubits set in @p z, I elsewhere. */
    static size_t
    ZString(size_t z)
    {
        size_t index = 0;
        for (int q = 0; z >> q; ++q) {
            if ((z >> q) & 1) {
                index |= size_t{3} << (2 * q);
            }
        }
        return index;
    }

    void
    Flush(int q)
    {
        if (!pending_[q]) {
            return;
        }
        const Ptm ptm = *pending_[q];
        pending_[q].reset();
        const size_t stride = size_t{1} << (2 * q);
        for (size_t top = 0; top < c_.size(); top += 4 * stride) {
            for (size_t i = top; i < top + stride; ++i) {
                const double in0 = c_[i];
                const double in1 = c_[i + stride];
                const double in2 = c_[i + 2 * stride];
                const double in3 = c_[i + 3 * stride];
                for (int a = 0; a < 4; ++a) {
                    c_[i + a * stride] =
                        ptm[4 * a] * in0 + ptm[4 * a + 1] * in1 +
                        ptm[4 * a + 2] * in2 + ptm[4 * a + 3] * in3;
                }
            }
        }
    }

    int width_;
    std::vector<double> c_;
    std::vector<std::optional<Ptm>> pending_;
};

/** Whether some operation touches a qubit after its measure. */
bool
HasMidCircuitMeasure(const RunPlan& plan)
{
    std::vector<bool> measured(plan.width, false);
    for (const RunPlan::Op& op : plan.ops) {
        for (QubitId q : op.gate.qubits) {
            if (measured[q]) {
                return true;
            }
        }
        if (op.gate.IsMeasure()) {
            measured[op.gate.qubits[0]] = true;
        }
    }
    return false;
}

/** Per register of @p layout: its width, and 0 when no qubit of it is
 *  measured (such a register is never evolved). */
std::vector<int>
EvolvedWidths(const RunPlan& plan, const RegisterLayout& layout)
{
    std::vector<bool> measured(layout.widths.size(), false);
    for (const RunPlan::Op& op : plan.ops) {
        if (op.gate.IsMeasure()) {
            measured[layout.slot_of_local[op.gate.qubits[0]].first] = true;
        }
    }
    std::vector<int> widths = layout.widths;
    for (size_t r = 0; r < widths.size(); ++r) {
        widths[r] = measured[r] ? widths[r] : 0;
    }
    return widths;
}

}  // namespace

std::optional<int>
ExactRegisterWidth(const RunPlan& plan)
{
    if (HasMidCircuitMeasure(plan)) {
        return std::nullopt;
    }
    const std::vector<int> widths = EvolvedWidths(plan, PlanRegisters(plan));
    return widths.empty() ? 0 : *std::max_element(widths.begin(),
                                                   widths.end());
}

ExactDistribution::ExactDistribution(const RunPlan& plan)
    : num_clbits_(plan.num_clbits)
{
    telemetry::ScopedSpan span("sim.exact.evolve");
    XTALK_REQUIRE(!HasMidCircuitMeasure(plan),
                  "exact evolution requires terminal measures");
    const RegisterLayout layout = PlanRegisters(plan);
    const std::vector<std::pair<int, int>>& slots = layout.slot_of_local;
    const std::vector<int> widths = EvolvedWidths(plan, layout);

    // Evolved registers in register order; -1 = not evolved.
    std::vector<int> density_of(widths.size(), -1);
    std::vector<PauliDensity> densities;
    for (size_t r = 0; r < widths.size(); ++r) {
        if (widths[r] == 0) {
            continue;
        }
        XTALK_REQUIRE(widths[r] <= kMaxExactRegisterQubits,
                      "exact evolution supports registers of at most "
                          << kMaxExactRegisterQubits << " qubits, got "
                          << widths[r]);
        density_of[r] = static_cast<int>(densities.size());
        densities.emplace_back(widths[r]);
        width_ = std::max(width_, widths[r]);
    }

    std::vector<std::vector<Readout>> readouts(densities.size());
    for (const RunPlan::Op& op : plan.ops) {
        const Gate& gate = op.gate;
        const int density = density_of[slots[gate.qubits[0]].first];
        if (density < 0) {
            continue;
        }
        PauliDensity& rho = densities[density];
        auto decay = [&](int begin, int end) {
            for (int d = begin; d < end; ++d) {
                const RunPlan::Decay& decay = plan.decays[d];
                rho.Channel(slots[decay.qubit].second,
                            DecayPtm(decay.gamma,
                                     decay.dephases ? decay.pz : 0.0));
            }
        };
        const int q0 = slots[gate.qubits[0]].second;
        decay(op.decay_begin, op.busy_begin);
        if (gate.IsMeasure()) {
            decay(op.busy_begin, op.decay_end);
            readouts[density].push_back(
                {q0, gate.cbit, plan.readout_noise ? op.readout_error : 0.0});
            continue;
        }
        if (gate.qubits.size() == 2) {
            rho.TwoQubit(q0, slots[gate.qubits[1]].second,
                         TwoQubitPtm(gate.kind), op.error);
        } else {
            if (gate.kind != GateKind::kI) {
                rho.Channel(q0, UnitaryPtm(ToUnitary1Q(GateUnitary(gate))));
            }
            if (op.error > 0.0) {
                rho.Channel(q0, DepolarizePtm(op.error));
            }
        }
        decay(op.busy_begin, op.decay_end);
    }

    // Each register's outcomes with nonzero probability, as (probability,
    // classical bits). Registers merge, in order, into sampling groups of
    // at most kMaxGroupOutcomes joint outcomes (products of
    // probabilities, ORs of bits), so a shot usually draws once.
    std::vector<std::vector<std::pair<double, uint64_t>>> groups;
    for (size_t r = 0; r < densities.size(); ++r) {
        // Bit k of an outcome is the register's k-th measure.
        const std::vector<double> marginal =
            densities[r].Marginal(readouts[r]);
        std::vector<std::pair<double, uint64_t>> outcomes;
        for (size_t outcome = 0; outcome < marginal.size(); ++outcome) {
            if (!(marginal[outcome] > 0.0)) {
                continue;
            }
            uint64_t bits = 0;
            for (size_t k = 0; k < readouts[r].size(); ++k) {
                if ((outcome >> k) & 1) {
                    bits |= uint64_t{1} << readouts[r][k].cbit;
                }
            }
            outcomes.emplace_back(marginal[outcome], bits);
        }
        XTALK_ASSERT(!outcomes.empty(), "register " << r
                                                     << " lost its trace");
        support_ *= static_cast<double>(outcomes.size());
        if (groups.empty() ||
            groups.back().size() * outcomes.size() > kMaxGroupOutcomes) {
            groups.push_back(std::move(outcomes));
            continue;
        }
        std::vector<std::pair<double, uint64_t>> joint;
        joint.reserve(groups.back().size() * outcomes.size());
        for (const auto& [p, bits] : groups.back()) {
            for (const auto& [q, more] : outcomes) {
                joint.emplace_back(p * q, bits | more);
            }
        }
        groups.back() = std::move(joint);
    }
    for (const auto& group : groups) {
        std::vector<double> probability;
        std::vector<double> cdf;
        std::vector<uint64_t> bits;
        double total = 0.0;
        for (const auto& [p, outcome_bits] : group) {
            total += p;
            probability.push_back(p);
            cdf.push_back(total);
            bits.push_back(outcome_bits);
        }
        std::vector<uint32_t> by_bits(bits.size());
        for (size_t i = 0; i < by_bits.size(); ++i) {
            by_bits[i] = static_cast<uint32_t>(i);
        }
        std::stable_sort(by_bits.begin(), by_bits.end(),
                         [&](uint32_t a, uint32_t b) {
                             return bits[a] < bits[b];
                         });
        groups_.push_back({std::move(probability), std::move(bits),
                           std::move(by_bits), CdfBins(std::move(cdf))});
    }
    registers_ = static_cast<int>(densities.size());
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sim.exact.runs").Add(1);
    }
}

CdfBins::CdfBins(std::vector<double> cdf)
    : cdf_(std::move(cdf)), last_(cdf_.size() - 1)
{
    XTALK_REQUIRE(!cdf_.empty() && cdf_.size() <= kOutcome,
                  "CdfBins needs 1 to 2^31 - 1 outcomes, got "
                      << cdf_.size());
    size_t bins = 1;
    while (bins < 4 * cdf_.size()) {
        bins *= 2;
    }
    bins_.resize(bins);
    scale_ = static_cast<double>(bins);
    // One ascending sweep: bin j starts at the first outcome whose CDF
    // exceeds j / bins (the last if none does), and is pure when that
    // outcome's CDF reaches the bin's upper edge. The edges are exact
    // (a power-of-two denominator).
    for (size_t j = 0, i = 0; j < bins; ++j) {
        const double lower = static_cast<double>(j) / scale_;
        while (i < last_ && cdf_[i] <= lower) {
            ++i;
        }
        const bool pure =
            i == last_ || cdf_[i] >= static_cast<double>(j + 1) / scale_;
        bins_[j] = static_cast<uint32_t>(i) | (pure ? kPure : 0);
    }
}

Counts
ExactDistribution::Sample(int shots, Rng& rng) const
{
    XTALK_REQUIRE(shots > 0, "shots must be positive");
    telemetry::ScopedSpan span("sim.exact.sample");
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sim.exact.shots")
            .Add(static_cast<uint64_t>(shots));
        telemetry::GetCounter("sim.shots").Add(static_cast<uint64_t>(shots));
    }
    Counts counts(num_clbits_);
    if (groups_.empty()) {
        counts.Record(0, shots);  // Nothing is measured.
        return counts;
    }
    if (groups_.size() > 1) {
        std::vector<uint64_t> outcomes(static_cast<size_t>(shots));
        for (uint64_t& bits : outcomes) {
            bits = 0;
            for (const Outcomes& group : groups_) {
                bits |= group.bits[group.bins.Pick(rng.Uniform())];
            }
        }
        counts.RecordShots(outcomes);
        return counts;
    }
    // One group, the usual case: tally its outcomes, then record each
    // once, in ascending order of bits.
    const Outcomes& outcomes = groups_.front();
    std::vector<int> tally(outcomes.bits.size(), 0);
    for (int shot = 0; shot < shots; ++shot) {
        ++tally[outcomes.bins.Pick(rng.Uniform())];
    }
    counts.Reserve(tally.size() - static_cast<size_t>(std::count(
                                      tally.begin(), tally.end(), 0)));
    for (const uint32_t i : outcomes.by_bits) {
        if (tally[i] > 0) {
            counts.Record(outcomes.bits[i], tally[i]);
        }
    }
    return counts;
}

std::vector<double>
ExactDistribution::Probabilities() const
{
    XTALK_REQUIRE(num_clbits_ <= 24, "Probabilities supports 1..24 clbits");
    std::vector<double> joint(size_t{1} << num_clbits_, 0.0);
    joint[0] = 1.0;
    for (const Outcomes& outcomes : groups_) {
        std::vector<double> next(joint.size(), 0.0);
        for (size_t pattern = 0; pattern < joint.size(); ++pattern) {
            if (joint[pattern] == 0.0) {
                continue;
            }
            for (size_t i = 0; i < outcomes.bits.size(); ++i) {
                next[pattern | outcomes.bits[i]] +=
                    joint[pattern] * outcomes.probability[i];
            }
        }
        joint = std::move(next);
    }
    return joint;
}

}  // namespace xtalk
