#include "sim/density_matrix.h"

#include <cmath>

#include "common/error.h"
#include "sim/gate_matrices.h"

namespace xtalk {

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(num_qubits), dim_(size_t{1} << num_qubits)
{
    XTALK_REQUIRE(num_qubits > 0 && num_qubits <= 10,
                  "density matrix supports 1..10 qubits, got " << num_qubits);
    rho_ = Matrix(dim_, dim_);
    rho_(0, 0) = Complex(1.0, 0.0);
}

namespace {

/** rho -> (U_q) rho: left-multiply the 1q unitary on qubit q. */
void
LeftApply1Q(Matrix& rho, size_t dim, int q, const Matrix& u)
{
    const size_t mask = size_t{1} << q;
    for (size_t col = 0; col < dim; ++col) {
        for (size_t i = 0; i < dim; ++i) {
            if (i & mask) {
                continue;
            }
            const Complex a0 = rho(i, col);
            const Complex a1 = rho(i | mask, col);
            rho(i, col) = u(0, 0) * a0 + u(0, 1) * a1;
            rho(i | mask, col) = u(1, 0) * a0 + u(1, 1) * a1;
        }
    }
}

/** rho -> rho (U_q)+: right-multiply by the dagger. */
void
RightApply1QDagger(Matrix& rho, size_t dim, int q, const Matrix& u)
{
    const size_t mask = size_t{1} << q;
    for (size_t row = 0; row < dim; ++row) {
        for (size_t j = 0; j < dim; ++j) {
            if (j & mask) {
                continue;
            }
            const Complex a0 = rho(row, j);
            const Complex a1 = rho(row, j | mask);
            // (rho U+)_{r,j} = sum_k rho_{r,k} conj(U_{j,k}).
            rho(row, j) = a0 * std::conj(u(0, 0)) + a1 * std::conj(u(0, 1));
            rho(row, j | mask) =
                a0 * std::conj(u(1, 0)) + a1 * std::conj(u(1, 1));
        }
    }
}

/** Local index of a basis state within a 2-qubit block. */
size_t
Compose2(size_t base, size_t mask_low, size_t mask_high, int local)
{
    size_t out = base;
    if (local & 1) {
        out |= mask_low;
    }
    if (local & 2) {
        out |= mask_high;
    }
    return out;
}

void
LeftApply2Q(Matrix& rho, size_t dim, int q_low, int q_high, const Matrix& u)
{
    const size_t ml = size_t{1} << q_low;
    const size_t mh = size_t{1} << q_high;
    for (size_t col = 0; col < dim; ++col) {
        for (size_t i = 0; i < dim; ++i) {
            if ((i & ml) || (i & mh)) {
                continue;
            }
            Complex in[4], out[4];
            for (int k = 0; k < 4; ++k) {
                in[k] = rho(Compose2(i, ml, mh, k), col);
            }
            for (int r = 0; r < 4; ++r) {
                out[r] = Complex(0, 0);
                for (int k = 0; k < 4; ++k) {
                    out[r] += u(r, k) * in[k];
                }
            }
            for (int k = 0; k < 4; ++k) {
                rho(Compose2(i, ml, mh, k), col) = out[k];
            }
        }
    }
}

void
RightApply2QDagger(Matrix& rho, size_t dim, int q_low, int q_high,
                   const Matrix& u)
{
    const size_t ml = size_t{1} << q_low;
    const size_t mh = size_t{1} << q_high;
    for (size_t row = 0; row < dim; ++row) {
        for (size_t j = 0; j < dim; ++j) {
            if ((j & ml) || (j & mh)) {
                continue;
            }
            Complex in[4], out[4];
            for (int k = 0; k < 4; ++k) {
                in[k] = rho(row, Compose2(j, ml, mh, k));
            }
            for (int r = 0; r < 4; ++r) {
                out[r] = Complex(0, 0);
                for (int k = 0; k < 4; ++k) {
                    out[r] += in[k] * std::conj(u(r, k));
                }
            }
            for (int k = 0; k < 4; ++k) {
                rho(row, Compose2(j, ml, mh, k)) = out[k];
            }
        }
    }
}

}  // namespace

void
DensityMatrix::Apply1Q(int q, const Matrix& u)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    LeftApply1Q(rho_, dim_, q, u);
    RightApply1QDagger(rho_, dim_, q, u);
}

void
DensityMatrix::Apply2Q(int q_low, int q_high, const Matrix& u)
{
    XTALK_REQUIRE(q_low >= 0 && q_low < num_qubits_ && q_high >= 0 &&
                      q_high < num_qubits_ && q_low != q_high,
                  "invalid qubit pair");
    LeftApply2Q(rho_, dim_, q_low, q_high, u);
    RightApply2QDagger(rho_, dim_, q_low, q_high, u);
}

void
DensityMatrix::ApplyGate(const Gate& gate)
{
    if (gate.kind == GateKind::kI || gate.kind == GateKind::kBarrier) {
        return;
    }
    XTALK_REQUIRE(!gate.IsMeasure(), "measures not supported here");
    const Matrix u = GateUnitary(gate);
    if (gate.qubits.size() == 1) {
        Apply1Q(gate.qubits[0], u);
    } else {
        Apply2Q(gate.qubits[0], gate.qubits[1], u);
    }
}

void
DensityMatrix::ApplyDepolarizing(const Gate::Qubits& qubits, double p)
{
    XTALK_REQUIRE(p >= 0.0 && p <= 1.0, "bad probability " << p);
    XTALK_REQUIRE(qubits.size() == 1 || qubits.size() == 2,
                  "depolarizing supports 1 or 2 qubits");
    if (p == 0.0) {
        return;
    }
    const int num_paulis = qubits.size() == 1 ? 3 : 15;
    Matrix mixed(dim_, dim_);
    const Matrix paulis[4] = {MatI(), MatX(), MatY(), MatZ()};
    for (int code = 1; code <= num_paulis; ++code) {
        DensityMatrix branch = *this;
        int c = code;
        for (QubitId q : qubits) {
            const int which = c & 3;
            c >>= 2;
            if (which != 0) {
                branch.Apply1Q(q, paulis[which]);
            }
        }
        mixed = mixed + branch.rho_ * Complex(1.0 / num_paulis, 0.0);
    }
    rho_ = rho_ * Complex(1.0 - p, 0.0) + mixed * Complex(p, 0.0);
}

void
DensityMatrix::ApplyAmplitudeDamping(int q, double gamma)
{
    XTALK_REQUIRE(gamma >= 0.0 && gamma <= 1.0, "bad gamma " << gamma);
    if (gamma == 0.0) {
        return;
    }
    const Matrix k0{{1, 0}, {0, std::sqrt(1.0 - gamma)}};
    const Matrix k1{{0, std::sqrt(gamma)}, {0, 0}};
    DensityMatrix branch0 = *this;
    LeftApply1Q(branch0.rho_, dim_, q, k0);
    RightApply1QDagger(branch0.rho_, dim_, q, k0);
    DensityMatrix branch1 = *this;
    LeftApply1Q(branch1.rho_, dim_, q, k1);
    RightApply1QDagger(branch1.rho_, dim_, q, k1);
    rho_ = branch0.rho_ + branch1.rho_;
}

void
DensityMatrix::ApplyDephasing(int q, double p_flip)
{
    XTALK_REQUIRE(p_flip >= 0.0 && p_flip <= 0.5 + 1e-12,
                  "bad dephasing probability " << p_flip);
    if (p_flip == 0.0) {
        return;
    }
    DensityMatrix flipped = *this;
    flipped.Apply1Q(q, MatZ());
    rho_ = rho_ * Complex(1.0 - p_flip, 0.0) +
           flipped.rho_ * Complex(p_flip, 0.0);
}

void
DensityMatrix::ApplyReadoutFlip(int q, double p_flip)
{
    XTALK_REQUIRE(p_flip >= 0.0 && p_flip < 0.5, "bad flip probability");
    if (p_flip == 0.0) {
        return;
    }
    DensityMatrix flipped = *this;
    flipped.Apply1Q(q, MatX());
    rho_ = rho_ * Complex(1.0 - p_flip, 0.0) +
           flipped.rho_ * Complex(p_flip, 0.0);
}

std::vector<double>
DensityMatrix::Probabilities() const
{
    std::vector<double> probs(dim_);
    for (size_t i = 0; i < dim_; ++i) {
        probs[i] = rho_(i, i).real();
    }
    return probs;
}

double
DensityMatrix::Trace() const
{
    return rho_.Trace().real();
}

double
DensityMatrix::Purity() const
{
    return (rho_ * rho_).Trace().real();
}

double
DensityMatrix::FidelityWithPure(const std::vector<Complex>& amplitudes) const
{
    XTALK_REQUIRE(amplitudes.size() == dim_, "amplitude vector size mismatch");
    Complex f(0.0, 0.0);
    for (size_t i = 0; i < dim_; ++i) {
        for (size_t j = 0; j < dim_; ++j) {
            f += std::conj(amplitudes[i]) * rho_(i, j) * amplitudes[j];
        }
    }
    return std::max(0.0, f.real());
}

}  // namespace xtalk
