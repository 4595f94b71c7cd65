#include "scheduler/xtalk_problem.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "circuit/dag.h"
#include "common/error.h"

namespace xtalk {

namespace {

/** The solvers' 0.01 ns time resolution. */
double
Quantize(double ns)
{
    return std::llround(ns * 100.0) / 100.0;
}

long long
Units(double ns)
{
    return std::llround(ns * 100.0);
}

double
LogOf(double eps)
{
    return std::log(std::clamp(eps, 1e-9, 1.0 - 1e-9));
}

/**
 * A difference constraint tau[to] >= tau[from] + len (0.01 ns units)
 * and the flow its dual variable carries.
 */
struct Arc {
    int from = 0;
    int to = 0;
    long long len = 0;
    double flow = 0.0;
};

/** Precedence arcs, then both directions of every readout equality. */
std::vector<Arc>
ConstraintArcs(const XtalkProblem& problem)
{
    std::vector<Arc> arcs;
    arcs.reserve(problem.precedence.size());
    for (const auto& [before, after] : problem.precedence) {
        arcs.push_back({before, after, Units(problem.duration[before])});
    }
    for (const std::vector<GateId>& group : problem.readout_groups) {
        for (size_t k = 1; k < group.size(); ++k) {
            arcs.push_back({group[0], group[k], 0});
            arcs.push_back({group[k], group[0], 0});
        }
    }
    return arcs;
}

/**
 * The componentwise-least tau >= 0 with tau[to] >= tau[from] + len on
 * every arc and, on arcs carrying flow, also tau[to] <= tau[from] + len
 * (complementary slackness): longest paths from a virtual root joined
 * to every gate by a zero-length arc. Arcs run mostly in gate order, so
 * the Bellman-Ford passes converge in a few sweeps. False when a
 * positive cycle makes the constraints infeasible.
 */
bool
EarliestStarts(int n, const std::vector<Arc>& arcs,
               std::vector<long long>* tau)
{
    tau->assign(n, 0);
    for (int pass = 0; pass <= n; ++pass) {
        bool changed = false;
        for (const Arc& arc : arcs) {
            if ((*tau)[arc.from] + arc.len > (*tau)[arc.to]) {
                (*tau)[arc.to] = (*tau)[arc.from] + arc.len;
                changed = true;
            }
            if (arc.flow > 0.0 && (*tau)[arc.to] - arc.len > (*tau)[arc.from]) {
                (*tau)[arc.from] = (*tau)[arc.to] - arc.len;
                changed = true;
            }
        }
        if (!changed) {
            return true;
        }
    }
    return false;
}

/**
 * The dual of the lifetime LP: node g must receive net flow balance[g]
 * (its last-gate weights minus its first-gate weights), arcs carry any
 * flow >= 0, and the flow maximizes sum len * flow. Successive longest
 * augmenting paths from the remaining supplies to the remaining
 * demands, ties broken by fewest arcs (Edmonds-Karp inside each
 * distance phase, so it terminates with real-valued amounts). Path
 * choice is exact (integer lengths); amounts below @p eps snap to 0.
 */
void
MaxLengthFlow(int n, std::vector<double> balance, double eps,
              std::vector<Arc>* arcs)
{
    const auto remaining = [&] {
        double total = 0.0;
        for (double b : balance) {
            total += std::abs(b);
        }
        return total;
    };
    // via[g]: arc index * 2 (+1 when walked backward), or -1 at a source.
    std::vector<long long> best(n);
    std::vector<int> hops(n);
    std::vector<int> via(n);
    std::vector<char> reached(n);
    const long long max_augmentations =
        (static_cast<long long>(n) + static_cast<long long>(arcs->size()) +
         1) *
        (n + 1);
    for (long long augmentation = 0; remaining() > eps; ++augmentation) {
        XTALK_ASSERT(augmentation < max_augmentations,
                     "lifetime flow did not converge");
        std::fill(reached.begin(), reached.end(), 0);
        for (int g = 0; g < n; ++g) {
            if (balance[g] < -eps) {
                reached[g] = 1;
                best[g] = 0;
                hops[g] = 0;
                via[g] = -1;
            }
        }
        const auto relax = [&](int from, int to, long long len, int step) {
            if (!reached[from]) {
                return false;
            }
            const long long length = best[from] + len;
            const int h = hops[from] + 1;
            if (reached[to] &&
                (length < best[to] || (length == best[to] && h >= hops[to]))) {
                return false;
            }
            reached[to] = 1;
            best[to] = length;
            hops[to] = h;
            via[to] = step;
            return true;
        };
        bool converged = false;
        for (int pass = 0; pass <= n && !converged; ++pass) {
            converged = true;
            for (size_t a = 0; a < arcs->size(); ++a) {
                const Arc& arc = (*arcs)[a];
                const int step = static_cast<int>(2 * a);
                if (relax(arc.from, arc.to, arc.len, step)) {
                    converged = false;
                }
                if (arc.flow > 0.0 &&
                    relax(arc.to, arc.from, -arc.len, step + 1)) {
                    converged = false;
                }
            }
        }
        XTALK_ASSERT(converged, "lifetime flow: positive residual cycle");

        int sink = -1;
        for (int g = 0; g < n; ++g) {
            if (balance[g] > eps && reached[g] &&
                (sink < 0 || best[g] > best[sink] ||
                 (best[g] == best[sink] && hops[g] < hops[sink]))) {
                sink = g;
            }
        }
        XTALK_ASSERT(sink >= 0, "lifetime flow: a demand is unreachable");

        double amount = balance[sink];
        int source = sink;
        for (int steps = 0; via[source] >= 0; ++steps) {
            XTALK_ASSERT(steps < n, "lifetime flow: cyclic augmenting path");
            const Arc& arc = (*arcs)[via[source] / 2];
            const bool backward = via[source] % 2 == 1;
            if (backward) {
                amount = std::min(amount, arc.flow);
            }
            source = backward ? arc.to : arc.from;
        }
        amount = std::min(amount, -balance[source]);
        for (int g = sink; via[g] >= 0;) {
            Arc& arc = (*arcs)[via[g] / 2];
            const bool backward = via[g] % 2 == 1;
            arc.flow += backward ? -amount : amount;
            if (arc.flow <= eps) {
                arc.flow = 0.0;
            }
            g = backward ? arc.to : arc.from;
        }
        balance[sink] -= amount;
        balance[source] += amount;
        for (int g : {sink, source}) {
            if (std::abs(balance[g]) <= eps) {
                balance[g] = 0.0;
            }
        }
    }
}

}  // namespace

XtalkProblem
BuildXtalkProblem(const Circuit& circuit, const Device& device,
                  const CrosstalkCharacterization& characterization)
{
    const DependencyDag dag(circuit);
    XtalkProblem problem;
    problem.n = circuit.size();
    problem.no_partial_overlap = device.traits().no_partial_overlap;
    const int n = problem.n;
    problem.duration.assign(n, 0.0);
    problem.log_independent.assign(n, 0.0);
    std::vector<EdgeId> edge_of(n, -1);
    std::vector<GateId> measures;
    std::vector<GateId> first(circuit.num_qubits(), -1);
    std::vector<GateId> last(circuit.num_qubits(), -1);
    for (GateId g = 0; g < n; ++g) {
        const Gate& gate = circuit.gate(g);
        // Quantize to the solvers' 0.01 ns resolution so the emitted
        // schedule matches the constraint system exactly.
        problem.duration[g] =
            gate.IsBarrier() ? 0.0 : Quantize(device.GateDuration(gate));
        if (gate.IsTwoQubitUnitary()) {
            edge_of[g] =
                device.topology().FindEdge(gate.qubits[0], gate.qubits[1]);
            XTALK_REQUIRE(edge_of[g] >= 0,
                          "two-qubit gate on uncoupled qubits: "
                              << xtalk::ToString(gate));
        }
        if (gate.IsMeasure()) {
            measures.push_back(g);
        }
        for (GateId p : dag.Predecessors(g)) {
            problem.precedence.push_back({p, g});
        }
        if (!gate.IsBarrier()) {
            for (QubitId q : gate.qubits) {
                if (first[q] < 0) {
                    first[q] = g;
                }
                last[q] = g;
            }
        }
    }
    if (device.traits().simultaneous_readout && measures.size() > 1) {
        problem.readout_groups.push_back(std::move(measures));
    }
    for (QubitId q = 0; q < circuit.num_qubits(); ++q) {
        if (first[q] >= 0) {
            problem.lifetimes.push_back(
                {first[q], last[q], Quantize(device.CoherenceTimeNs(q))});
        }
    }

    // Eligible pairs: DAG-concurrent 2q gates on distinct couplers whose
    // measured conditional error satisfies the high-crosstalk criterion
    // in either direction — the paper's pruning of CanOlp to
    // high-crosstalk partners.
    problem.layer = dag.AsapLayers();
    std::vector<char> eligible_gate(n, 0);
    for (GateId i = 0; i < n; ++i) {
        const EdgeId ei = edge_of[i];
        if (ei < 0) {
            continue;
        }
        for (GateId j = i + 1; j < n; ++j) {
            const EdgeId ej = edge_of[j];
            if (ej < 0 || ej == ei || !dag.CanOverlap(i, j)) {
                continue;
            }
            if (characterization.IsHighCrosstalk(ei, ej) ||
                characterization.IsHighCrosstalk(ej, ei)) {
                problem.eligible.push_back(
                    {i, j, LogOf(characterization.ConditionalError(ei, ej)),
                     LogOf(characterization.ConditionalError(ej, ei))});
                eligible_gate[i] = eligible_gate[j] = 1;
            }
        }
    }
    for (GateId g = 0; g < n; ++g) {
        if (eligible_gate[g]) {
            const EdgeId e = edge_of[g];
            problem.eligible_gates.push_back(g);
            problem.log_independent[g] = LogOf(
                characterization.IndependentOrCalibratedError(e, device));
        }
    }
    return problem;
}

std::vector<double>
SolveLifetimeFlow(const XtalkProblem& problem)
{
    const int n = problem.n;
    std::vector<Arc> arcs = ConstraintArcs(problem);
    std::vector<long long> tau;
    XTALK_REQUIRE(EarliestStarts(n, arcs, &tau),
                  "scheduling constraints are unsatisfiable: the circuit "
                  "orders one measurement of a simultaneous-readout group "
                  "before another");

    // Weights normalized to a largest of 1: the argmin is unchanged and
    // the flow amounts stay O(1), so one absolute snap tolerance fits.
    double max_weight = 0.0;
    for (const XtalkProblem::Lifetime& life : problem.lifetimes) {
        max_weight = std::max(max_weight, 1.0 / life.coherence_ns);
    }
    std::vector<double> weight;
    std::vector<double> balance(n, 0.0);
    for (const XtalkProblem::Lifetime& life : problem.lifetimes) {
        weight.push_back(1.0 / life.coherence_ns / max_weight);
        balance[life.last] += weight.back();
        balance[life.first] -= weight.back();
    }
    MaxLengthFlow(n, balance, 1e-11, &arcs);
    XTALK_ASSERT(EarliestStarts(n, arcs, &tau),
                 "lifetime flow: the tight constraints are infeasible");
    std::vector<double> start_ns(n);
    for (GateId g = 0; g < n; ++g) {
        start_ns[g] = static_cast<double>(tau[g]) / 100.0;
    }

    // Certificate: primal feasibility, and strong duality between the
    // lifetime sum and the flow's objective, sum len * flow plus the
    // last gates' durations, both weighted by 1/T.
    XTALK_ASSERT(SatisfiesTimingConstraints(problem, start_ns),
                 "lifetime flow: start times violate a constraint");
    double dual = 0.0;
    for (size_t k = 0; k < problem.lifetimes.size(); ++k) {
        const GateId last = problem.lifetimes[k].last;
        dual += weight[k] * static_cast<double>(Units(problem.duration[last]));
    }
    for (const Arc& arc : arcs) {
        dual += static_cast<double>(arc.len) * arc.flow;
    }
    dual *= max_weight / 100.0;
    const double primal = LifetimeObjective(problem, start_ns);
    XTALK_ASSERT(std::abs(primal - dual) <=
                     1e-9 * std::max(std::abs(primal), std::abs(dual)),
                 "lifetime flow: primal objective " << primal
                     << " != dual objective " << dual);
    return start_ns;
}

double
LifetimeObjective(const XtalkProblem& problem,
                  const std::vector<double>& start_ns)
{
    double objective = 0.0;
    for (const XtalkProblem::Lifetime& life : problem.lifetimes) {
        objective += (start_ns[life.last] + problem.duration[life.last] -
                      start_ns[life.first]) /
                     life.coherence_ns;
    }
    return objective;
}

bool
SatisfiesTimingConstraints(const XtalkProblem& problem,
                           const std::vector<double>& start_ns,
                           double tolerance_ns)
{
    if (static_cast<int>(start_ns.size()) != problem.n) {
        return false;
    }
    for (double s : start_ns) {
        if (s < -tolerance_ns) {
            return false;
        }
    }
    for (const auto& [before, after] : problem.precedence) {
        if (start_ns[after] <
            start_ns[before] + problem.duration[before] - tolerance_ns) {
            return false;
        }
    }
    for (const std::vector<GateId>& group : problem.readout_groups) {
        for (GateId g : group) {
            if (std::abs(start_ns[g] - start_ns[group[0]]) > tolerance_ns) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace xtalk
