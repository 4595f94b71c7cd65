#include "sim/statevector.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sim/gate_matrices.h"

namespace xtalk {

Unitary1Q
ToUnitary1Q(const Matrix& u)
{
    XTALK_ASSERT(u.rows() == 2 && u.cols() == 2, "expected 2x2 unitary");
    return {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
}

Unitary2Q
ToUnitary2Q(const Matrix& u)
{
    XTALK_ASSERT(u.rows() == 4 && u.cols() == 4, "expected 4x4 unitary");
    Unitary2Q out;
    for (size_t r = 0; r < 4; ++r) {
        for (size_t c = 0; c < 4; ++c) {
            out[4 * r + c] = u(r, c);
        }
    }
    return out;
}

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits)
{
    XTALK_REQUIRE(num_qubits > 0 && num_qubits <= 26,
                  "statevector supports 1..26 qubits, got " << num_qubits);
    amps_.assign(size_t{1} << num_qubits, Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
}

void
StateVector::Reset()
{
    std::fill(amps_.begin(), amps_.end(), Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
}

void
StateVector::Load(std::span<const Complex> amps)
{
    XTALK_REQUIRE(amps.size() == amps_.size(),
                  "loading " << amps.size() << " amplitudes into a state of "
                             << amps_.size());
    std::copy(amps.begin(), amps.end(), amps_.begin());
}

void
StateVector::Apply1Q(int q, const Unitary1Q& u)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const size_t stride = size_t{1} << q;
    const Complex u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
        for (size_t offset = 0; offset < stride; ++offset) {
            const size_t i0 = base + offset;
            const size_t i1 = i0 + stride;
            const Complex a0 = amps_[i0];
            const Complex a1 = amps_[i1];
            amps_[i0] = u00 * a0 + u01 * a1;
            amps_[i1] = u10 * a0 + u11 * a1;
        }
    }
}

void
StateVector::Apply1Q(int q, const Matrix& u)
{
    Apply1Q(q, ToUnitary1Q(u));
}

void
StateVector::Apply2Q(int q_low, int q_high, const Unitary2Q& u)
{
    XTALK_REQUIRE(q_low >= 0 && q_low < num_qubits_ && q_high >= 0 &&
                      q_high < num_qubits_ && q_low != q_high,
                  "invalid qubit pair (" << q_low << ", " << q_high << ")");
    const Unitary2Q m = u;  // Local copy: stores to amps_ cannot alias it.
    const size_t mask_low = size_t{1} << q_low;
    const size_t mask_high = size_t{1} << q_high;
    const size_t inner = std::min(mask_low, mask_high);
    const size_t outer = std::max(mask_low, mask_high);
    // Bit insertion: visit each 4-tuple once, at its 00 member, by
    // enumerating the indices with both bits clear.
    for (size_t top = 0; top < amps_.size(); top += 2 * outer) {
        for (size_t mid = top; mid < top + outer; mid += 2 * inner) {
            for (size_t i00 = mid; i00 < mid + inner; ++i00) {
                const size_t i01 = i00 | mask_low;  // Local index 1.
                const size_t i10 = i00 | mask_high;  // Local index 2.
                const size_t i11 = i00 | mask_low | mask_high;
                const Complex a00 = amps_[i00];
                const Complex a01 = amps_[i01];
                const Complex a10 = amps_[i10];
                const Complex a11 = amps_[i11];
                amps_[i00] =
                    m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
                amps_[i01] =
                    m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
                amps_[i10] =
                    m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
                amps_[i11] =
                    m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
            }
        }
    }
}

void
StateVector::Apply2Q(int q_low, int q_high, const Matrix& u)
{
    Apply2Q(q_low, q_high, ToUnitary2Q(u));
}

void
StateVector::ApplyGate(const Gate& gate)
{
    if (gate.kind == GateKind::kI || gate.kind == GateKind::kBarrier) {
        return;
    }
    XTALK_REQUIRE(!gate.IsMeasure(), "measures go through Collapse");
    const Matrix u = GateUnitary(gate);
    if (gate.qubits.size() == 1) {
        Apply1Q(gate.qubits[0], u);
    } else {
        Apply2Q(gate.qubits[0], gate.qubits[1], u);
    }
}

void
StateVector::ApplyCircuit(const Circuit& circuit)
{
    XTALK_REQUIRE(circuit.num_qubits() <= num_qubits_,
                  "circuit wider than state");
    for (const Gate& g : circuit.gates()) {
        if (!g.IsMeasure()) {
            ApplyGate(g);
        }
    }
}

double
StateVector::ProbabilityOne(int q) const
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const size_t stride = size_t{1} << q;
    double p = 0.0;
    for (size_t base = stride; base < amps_.size(); base += 2 * stride) {
        for (size_t i = base; i < base + stride; ++i) {
            p += std::norm(amps_[i]);
        }
    }
    return p;
}

std::vector<double>
StateVector::Probabilities() const
{
    std::vector<double> probs(amps_.size());
    for (size_t i = 0; i < amps_.size(); ++i) {
        probs[i] = std::norm(amps_[i]);
    }
    return probs;
}

// The fused passes below sum squared norms in ascending index order, as
// Norm() does. Skipping the amplitudes they have just zeroed leaves every
// partial sum unchanged (x + 0.0 == x for x >= 0).

void
StateVector::Collapse(int q, bool outcome)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const size_t stride = size_t{1} << q;
    const size_t kept = outcome ? stride : 0;
    const size_t dropped = stride - kept;
    double sum_sq = 0.0;
    for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
        for (size_t offset = 0; offset < stride; ++offset) {
            amps_[base + dropped + offset] = Complex(0.0, 0.0);
            sum_sq += std::norm(amps_[base + kept + offset]);
        }
    }
    Rescale(sum_sq);
}

void
StateVector::DampJump(int q)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    // K1 = sqrt(gamma) |0><1|: the excited component relaxes to |0>.
    const size_t stride = size_t{1} << q;
    double sum_sq = 0.0;
    for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
        for (size_t i = base; i < base + stride; ++i) {
            amps_[i] = amps_[i + stride];
            amps_[i + stride] = Complex(0.0, 0.0);
            sum_sq += std::norm(amps_[i]);
        }
    }
    Rescale(sum_sq);
}

void
StateVector::DampNoJump(int q, double keep)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const size_t stride = size_t{1} << q;
    double sum_sq = 0.0;
    for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
        for (size_t i = base; i < base + stride; ++i) {
            sum_sq += std::norm(amps_[i]);
        }
        for (size_t i = base + stride; i < base + 2 * stride; ++i) {
            amps_[i] *= keep;
            sum_sq += std::norm(amps_[i]);
        }
    }
    Rescale(sum_sq);
}

Complex
StateVector::InnerProduct(const StateVector& other) const
{
    XTALK_REQUIRE(num_qubits_ == other.num_qubits_, "state width mismatch");
    Complex acc(0.0, 0.0);
    for (size_t i = 0; i < amps_.size(); ++i) {
        acc += std::conj(amps_[i]) * other.amps_[i];
    }
    return acc;
}

double
StateVector::Fidelity(const StateVector& other) const
{
    return std::norm(InnerProduct(other));
}

double
StateVector::Norm() const
{
    double ss = 0.0;
    for (const Complex& a : amps_) {
        ss += std::norm(a);
    }
    return std::sqrt(ss);
}

void
StateVector::Rescale(double sum_sq)
{
    const double norm = std::sqrt(sum_sq);
    XTALK_ASSERT(norm > 1e-12, "state collapsed to zero norm");
    const double inv = 1.0 / norm;
    for (Complex& a : amps_) {
        a *= inv;
    }
}

Matrix
CircuitUnitary(const Circuit& circuit)
{
    XTALK_REQUIRE(circuit.num_qubits() <= 10,
                  "CircuitUnitary limited to 10 qubits");
    const size_t dim = size_t{1} << circuit.num_qubits();
    Matrix u(dim, dim);
    for (size_t col = 0; col < dim; ++col) {
        StateVector sv(circuit.num_qubits());
        // Prepare basis state |col>.
        for (int q = 0; q < circuit.num_qubits(); ++q) {
            if ((col >> q) & 1) {
                sv.Apply1Q(q, MatX());
            }
        }
        sv.ApplyCircuit(circuit);
        for (size_t row = 0; row < dim; ++row) {
            u(row, col) = sv.amplitude(row);
        }
    }
    return u;
}

}  // namespace xtalk
