#include "clifford/tableau.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace xtalk {

void
TableauRow::SetX(int q, bool v)
{
    const uint64_t mask = 1ull << (q % 64);
    if (v) {
        x[q / 64] |= mask;
    } else {
        x[q / 64] &= ~mask;
    }
}

void
TableauRow::SetZ(int q, bool v)
{
    const uint64_t mask = 1ull << (q % 64);
    if (v) {
        z[q / 64] |= mask;
    } else {
        z[q / 64] &= ~mask;
    }
}

void
TableauRow::Clear()
{
    std::fill(x.begin(), x.end(), 0);
    std::fill(z.begin(), z.end(), 0);
    r = false;
}

Tableau::Tableau(int num_qubits) : num_qubits_(num_qubits)
{
    XTALK_REQUIRE(num_qubits > 0, "tableau needs at least one qubit");
    const size_t words = (static_cast<size_t>(num_qubits) + 63) / 64;
    rows_.assign(2 * num_qubits, TableauRow{std::vector<uint64_t>(words, 0),
                                            std::vector<uint64_t>(words, 0),
                                            false});
    for (int i = 0; i < num_qubits; ++i) {
        rows_[i].SetX(i, true);                  // Destabilizer i = +X_i.
        rows_[num_qubits + i].SetZ(i, true);     // Stabilizer i = +Z_i.
    }
}

Tableau
Tableau::FromCircuit(const Circuit& circuit)
{
    Tableau t(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
        t.ApplyGate(g);
    }
    return t;
}

void
Tableau::ApplyH(int q)
{
    for (auto& row : rows_) {
        const bool x = row.GetX(q);
        const bool z = row.GetZ(q);
        row.r ^= x && z;
        row.SetX(q, z);
        row.SetZ(q, x);
    }
}

void
Tableau::ApplyS(int q)
{
    for (auto& row : rows_) {
        const bool x = row.GetX(q);
        const bool z = row.GetZ(q);
        row.r ^= x && z;
        row.SetZ(q, x != z);
    }
}

void
Tableau::ApplySdg(int q)
{
    ApplyS(q);
    ApplyS(q);
    ApplyS(q);
}

void
Tableau::ApplyX(int q)
{
    for (auto& row : rows_) {
        row.r ^= row.GetZ(q);
    }
}

void
Tableau::ApplyY(int q)
{
    for (auto& row : rows_) {
        row.r ^= row.GetX(q) != row.GetZ(q);
    }
}

void
Tableau::ApplyZ(int q)
{
    for (auto& row : rows_) {
        row.r ^= row.GetX(q);
    }
}

void
Tableau::ApplySX(int q)
{
    // sqrt(X) = H S H up to global phase.
    ApplyH(q);
    ApplyS(q);
    ApplyH(q);
}

void
Tableau::ApplyCX(int control, int target)
{
    XTALK_REQUIRE(control != target, "CX needs distinct qubits");
    for (auto& row : rows_) {
        const bool xc = row.GetX(control);
        const bool zc = row.GetZ(control);
        const bool xt = row.GetX(target);
        const bool zt = row.GetZ(target);
        row.r ^= xc && zt && (xt == zc);
        row.SetX(target, xt != xc);
        row.SetZ(control, zc != zt);
    }
}

void
Tableau::ApplyCZ(int a, int b)
{
    ApplyH(b);
    ApplyCX(a, b);
    ApplyH(b);
}

void
Tableau::ApplySwap(int a, int b)
{
    ApplyCX(a, b);
    ApplyCX(b, a);
    ApplyCX(a, b);
}

void
Tableau::ApplyGate(const Gate& gate)
{
    switch (gate.kind) {
      case GateKind::kI:
      case GateKind::kBarrier:
        return;
      case GateKind::kH:
        ApplyH(gate.qubits[0]);
        return;
      case GateKind::kS:
        ApplyS(gate.qubits[0]);
        return;
      case GateKind::kSdg:
        ApplySdg(gate.qubits[0]);
        return;
      case GateKind::kX:
        ApplyX(gate.qubits[0]);
        return;
      case GateKind::kY:
        ApplyY(gate.qubits[0]);
        return;
      case GateKind::kZ:
        ApplyZ(gate.qubits[0]);
        return;
      case GateKind::kSX:
        ApplySX(gate.qubits[0]);
        return;
      case GateKind::kCX:
        ApplyCX(gate.qubits[0], gate.qubits[1]);
        return;
      case GateKind::kCZ:
        ApplyCZ(gate.qubits[0], gate.qubits[1]);
        return;
      case GateKind::kSwap:
        ApplySwap(gate.qubits[0], gate.qubits[1]);
        return;
      default:
        XTALK_REQUIRE(false, "non-Clifford gate in tableau: "
                                 << xtalk::ToString(gate));
    }
}

bool
Tableau::IsIdentity() const
{
    const Tableau identity(num_qubits_);
    return *this == identity;
}

bool
Tableau::operator==(const Tableau& rhs) const
{
    if (num_qubits_ != rhs.num_qubits_) {
        return false;
    }
    for (size_t i = 0; i < rows_.size(); ++i) {
        if (rows_[i].x != rhs.rows_[i].x || rows_[i].z != rhs.rows_[i].z ||
            rows_[i].r != rhs.rows_[i].r) {
            return false;
        }
    }
    return true;
}

std::string
Tableau::Key() const
{
    std::string key;
    key.reserve(rows_.size() * (rows_[0].x.size() * 16 + 1));
    for (const auto& row : rows_) {
        for (uint64_t w : row.x) {
            key.append(reinterpret_cast<const char*>(&w), sizeof(w));
        }
        for (uint64_t w : row.z) {
            key.append(reinterpret_cast<const char*>(&w), sizeof(w));
        }
        key.push_back(row.r ? '1' : '0');
    }
    return key;
}

namespace {

/** Apply a gate to both the working tableau and the output circuit. */
struct Recorder {
    Tableau* t;
    Circuit* c;

    void
    H(int q)
    {
        t->ApplyH(q);
        c->H(q);
    }
    void
    S(int q)
    {
        t->ApplyS(q);
        c->S(q);
    }
    void
    X(int q)
    {
        t->ApplyX(q);
        c->X(q);
    }
    void
    Z(int q)
    {
        t->ApplyZ(q);
        c->Z(q);
    }
    void
    CX(int a, int b)
    {
        t->ApplyCX(a, b);
        c->CX(a, b);
    }
    void
    Swap(int a, int b)
    {
        t->ApplySwap(a, b);
        c->Swap(a, b);
    }
};

/** Make destabilizer row q have its X bit set at column q. */
void
SetQubitXTrue(Tableau& t, Recorder& rec, int q)
{
    const int n = t.num_qubits();
    if (t.destabilizer(q).GetX(q)) {
        return;
    }
    for (int i = q + 1; i < n; ++i) {
        if (t.destabilizer(q).GetX(i)) {
            rec.Swap(i, q);
            return;
        }
    }
    if (t.destabilizer(q).GetZ(q)) {
        rec.H(q);
        return;
    }
    for (int i = q + 1; i < n; ++i) {
        if (t.destabilizer(q).GetZ(i)) {
            rec.Swap(i, q);
            rec.H(q);
            return;
        }
    }
    XTALK_ASSERT(false, "tableau row " << q << " is trivial (not symplectic)");
}

/** Reduce destabilizer row q to exactly +/- X_q. */
void
SetRowXZero(Tableau& t, Recorder& rec, int q)
{
    const int n = t.num_qubits();
    for (int i = q + 1; i < n; ++i) {
        if (t.destabilizer(q).GetX(i)) {
            rec.CX(q, i);
        }
    }
    bool any_z = false;
    for (int i = q; i < n; ++i) {
        any_z = any_z || t.destabilizer(q).GetZ(i);
    }
    if (any_z) {
        if (!t.destabilizer(q).GetZ(q)) {
            rec.S(q);
        }
        for (int i = q + 1; i < n; ++i) {
            if (t.destabilizer(q).GetZ(i)) {
                rec.CX(i, q);
            }
        }
        rec.S(q);
    }
}

/** Reduce stabilizer row q to exactly +/- Z_q. */
void
SetRowZZero(Tableau& t, Recorder& rec, int q)
{
    const int n = t.num_qubits();
    for (int i = q + 1; i < n; ++i) {
        if (t.stabilizer(q).GetZ(i)) {
            rec.CX(i, q);
        }
    }
    bool any_x = false;
    for (int i = q; i < n; ++i) {
        any_x = any_x || t.stabilizer(q).GetX(i);
    }
    if (any_x) {
        rec.H(q);
        for (int i = q + 1; i < n; ++i) {
            if (t.stabilizer(q).GetX(i)) {
                rec.CX(q, i);
            }
        }
        if (t.stabilizer(q).GetZ(q)) {
            rec.S(q);
        }
        rec.H(q);
    }
}

}  // namespace

void
Tableau::ReduceToIdentity(Tableau& t, Circuit* out)
{
    Recorder rec{&t, out};
    const int n = t.num_qubits();
    for (int q = 0; q < n; ++q) {
        SetQubitXTrue(t, rec, q);
        SetRowXZero(t, rec, q);
        SetRowZZero(t, rec, q);
    }
    for (int q = 0; q < n; ++q) {
        if (t.destabilizer(q).r) {
            rec.Z(q);
        }
        if (t.stabilizer(q).r) {
            rec.X(q);
        }
    }
    XTALK_ASSERT(t.IsIdentity(), "AG reduction failed to reach identity");
}

Circuit
Tableau::SynthesizeInverse() const
{
    Tableau scratch = *this;
    Circuit out(num_qubits_);
    ReduceToIdentity(scratch, &out);
    return out;
}

Circuit
Tableau::Decompose() const
{
    // U = dagger of its inverse circuit: reverse the gate order and dagger
    // each gate (all gates used by the synthesis are self-inverse except S).
    const Circuit inverse = SynthesizeInverse();
    Circuit out(num_qubits_);
    for (auto it = inverse.gates().rbegin(); it != inverse.gates().rend();
         ++it) {
        Gate g = *it;
        if (g.kind == GateKind::kS) {
            g.kind = GateKind::kSdg;
        } else if (g.kind == GateKind::kSdg) {
            g.kind = GateKind::kS;
        }
        out.Add(std::move(g));
    }
    return out;
}

std::string
Tableau::ToString() const
{
    std::ostringstream oss;
    auto render = [&](const TableauRow& row) {
        oss << (row.r ? '-' : '+');
        for (int q = 0; q < num_qubits_; ++q) {
            const bool x = row.GetX(q);
            const bool z = row.GetZ(q);
            oss << (x && z ? 'Y' : x ? 'X' : z ? 'Z' : 'I');
        }
        oss << "\n";
    };
    oss << "destabilizers:\n";
    for (int i = 0; i < num_qubits_; ++i) {
        oss << "  ";
        render(destabilizer(i));
    }
    oss << "stabilizers:\n";
    for (int i = 0; i < num_qubits_; ++i) {
        oss << "  ";
        render(stabilizer(i));
    }
    return oss.str();
}

void
Tableau::Reset()
{
    for (auto& row : rows_) {
        row.Clear();
    }
    for (int i = 0; i < num_qubits_; ++i) {
        rows_[i].SetX(i, true);                 // Destabilizer X_i.
        rows_[num_qubits_ + i].SetZ(i, true);   // Stabilizer Z_i.
    }
}

void
Tableau::RowSum(TableauRow& h, const TableauRow& i, bool track_phase) const
{
    if (track_phase) {
        // Phase exponent of i^k in the product, tracked mod 4 (CHP's g).
        int phase = (h.r ? 2 : 0) + (i.r ? 2 : 0);
        for (int q = 0; q < num_qubits_; ++q) {
            const int x1 = i.GetX(q), z1 = i.GetZ(q);
            const int x2 = h.GetX(q), z2 = h.GetZ(q);
            if (x1 == 0 && z1 == 0) {
                continue;
            }
            if (x1 == 1 && z1 == 1) {
                phase += z2 - x2;                 // Y * P.
            } else if (x1 == 1) {
                phase += z2 * (2 * x2 - 1);       // X * P.
            } else {
                phase += x2 * (1 - 2 * z2);       // Z * P.
            }
        }
        phase = ((phase % 4) + 4) % 4;
        XTALK_ASSERT(phase == 0 || phase == 2, "rowsum produced odd i-power");
        h.r = (phase == 2);
    }
    for (size_t w = 0; w < h.x.size(); ++w) {
        h.x[w] ^= i.x[w];
        h.z[w] ^= i.z[w];
    }
}

double
Tableau::ProbabilityOne(int q) const
{
    for (int p = num_qubits_; p < 2 * num_qubits_; ++p) {
        if (rows_[p].GetX(q)) {
            return 0.5;  // Z_q anticommutes with a stabilizer: random.
        }
    }
    // Deterministic: accumulate destabilizer partners into scratch.
    const size_t words = rows_[0].x.size();
    TableauRow scratch{std::vector<uint64_t>(words, 0),
                       std::vector<uint64_t>(words, 0), false};
    for (int i = 0; i < num_qubits_; ++i) {
        if (rows_[i].GetX(q)) {
            RowSum(scratch, rows_[i + num_qubits_]);
        }
    }
    return scratch.r ? 1.0 : 0.0;
}

bool
Tableau::MeasureQubit(int q, Rng& rng)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    int p = -1;
    for (int row = num_qubits_; row < 2 * num_qubits_; ++row) {
        if (rows_[row].GetX(q)) {
            p = row;
            break;
        }
    }
    if (p >= 0) {
        // Random outcome. Destabilizer rows may anticommute with row p
        // (odd i-power), but their phase bits are never read — skip the
        // phase bookkeeping for them instead of asserting on it.
        for (int row = 0; row < 2 * num_qubits_; ++row) {
            if (row != p && rows_[row].GetX(q)) {
                RowSum(rows_[row], rows_[p],
                       /*track_phase=*/row >= num_qubits_);
            }
        }
        rows_[p - num_qubits_] = rows_[p];
        rows_[p].Clear();
        const bool outcome = rng.Bernoulli(0.5);
        rows_[p].SetZ(q, true);
        rows_[p].r = outcome;
        return outcome;
    }
    // Deterministic outcome.
    const size_t words = rows_[0].x.size();
    TableauRow scratch{std::vector<uint64_t>(words, 0),
                       std::vector<uint64_t>(words, 0), false};
    for (int i = 0; i < num_qubits_; ++i) {
        if (rows_[i].GetX(q)) {
            RowSum(scratch, rows_[i + num_qubits_]);
        }
    }
    return scratch.r;
}

}  // namespace xtalk
