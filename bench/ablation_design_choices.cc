/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out:
 *
 *  1. gate-error encoding: the paper's powerset of CanOlp vs the
 *     equivalent-at-optimum lower-bound encoding (solve time + schedule
 *     quality must match);
 *  2. optimal SMT (XtalkSched) vs the polynomial GreedySched heuristic
 *     on measured SWAP-circuit error;
 *  3. noise-source ablation in the simulator: executing the ParSched
 *     schedule with crosstalk disabled isolates how much of the error
 *     on conflicted paths is crosstalk (the effect the paper mitigates);
 *  4. the robust high-crosstalk criterion: candidate-pair counts with
 *     and without the absolute margin (controls over-serialization).
 */
#include <iostream>

#include "bench_util.h"
#include "common/statistics.h"
#include "device/ibmq_devices.h"
#include "metrics/tomography.h"
#include "scheduler/analysis.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/scheduler.h"
#include "compiler/compiler.h"
#include "metrics/cross_entropy.h"
#include "scheduler/xtalk_scheduler.h"

using namespace xtalk;
using namespace xtalk::bench;

int
main()
{
    const Device device = MakePoughkeepsie();
    const auto characterization = CharacterizeDevice(
        device, ScaledRbConfig(123), CharacterizationPolicy::kOneHopBinPacked,
        3);
    const auto pairs = FindConflictingSwapPairs(device, characterization, 8);
    const int shots = 512 * BudgetScale();

    // --- 1. Encoding ablation ------------------------------------------
    Banner("Ablation 1: powerset vs lower-bound gate-error encoding");
    {
        Table table({"qubit pair", "bound solve s", "powerset solve s",
                     "same objective"});
        for (const auto& [a, b] : pairs) {
            const SwapBenchmark bench = BuildSwapBenchmark(device, a, b);
            Circuit circuit = bench.circuit;
            circuit.Measure(bench.bell_left, 0)
                .Measure(bench.bell_right, 1);

            XtalkSchedulerOptions bound_options;
            XtalkScheduler bound(device, characterization, bound_options);
            const auto s_bound = bound.Schedule(circuit);
            const double t_bound = bound.stats().solve_seconds;

            XtalkSchedulerOptions powerset_options;
            powerset_options.use_powerset_encoding = true;
            XtalkScheduler powerset(device, characterization,
                                    powerset_options);
            const auto s_powerset = powerset.Schedule(circuit);
            const double t_powerset = powerset.stats().solve_seconds;

            const double obj_bound =
                EstimateScheduleError(s_bound, device, characterization)
                    .Objective(0.5);
            const double obj_powerset =
                EstimateScheduleError(s_powerset, device, characterization)
                    .Objective(0.5);
            table.Row(std::to_string(a) + "," + std::to_string(b), t_bound,
                      t_powerset,
                      std::abs(obj_bound - obj_powerset) < 1e-3 ? "yes"
                                                                : "no");
        }
        table.Print();
        std::cout << "\nThe encodings agree at the optimum; the bound "
                     "encoding needs no candidate cap and scales linearly "
                     "in |CanOlp|.\n";
    }

    // --- 2. SMT vs greedy heuristic -------------------------------------
    Banner("Ablation 2: XtalkSched (SMT) vs GreedySched (heuristic)");
    {
        GreedyXtalkScheduler greedy(device, characterization);
        XtalkScheduler xtalk(device, characterization);
        ParallelScheduler parallel(device);
        Table table({"qubit pair", "ParSched", "GreedySched", "XtalkSched"});
        std::vector<double> greedy_err, xtalk_err;
        for (const auto& [a, b] : pairs) {
            const SwapBenchmark bench = BuildSwapBenchmark(device, a, b);
            const uint64_t seed = a * 53 + b;
            const auto r_par =
                RunSwapExperiment(device, parallel, bench, shots, seed);
            const auto r_greedy =
                RunSwapExperiment(device, greedy, bench, shots, seed);
            const auto r_xtalk =
                RunSwapExperiment(device, xtalk, bench, shots, seed);
            table.Row(std::to_string(a) + "," + std::to_string(b),
                      r_par.error_rate, r_greedy.error_rate,
                      r_xtalk.error_rate);
            greedy_err.push_back(std::max(1e-4, r_greedy.error_rate));
            xtalk_err.push_back(std::max(1e-4, r_xtalk.error_rate));
        }
        table.Print();
        std::cout << "\ngeomean greedy/xtalk error ratio: "
                  << GeoMean(greedy_err) / GeoMean(xtalk_err)
                  << "x (1.0 means the heuristic matches the SMT optimum "
                     "on these workloads)\n";
    }

    // --- 3. Noise-source ablation ---------------------------------------
    Banner("Ablation 3: how much of ParSched's error is crosstalk?");
    {
        ParallelScheduler parallel(device);
        Table table({"qubit pair", "all noise", "no crosstalk", "xtalk share"});
        for (const auto& [a, b] : pairs) {
            const SwapBenchmark bench = BuildSwapBenchmark(device, a, b);
            const auto tomo = TomographyCircuits(
                bench.circuit, bench.bell_left, bench.bell_right);
            auto run = [&](bool crosstalk) {
                double worst = 0.0;
                NoisySimOptions options;
                options.crosstalk = crosstalk;
                options.seed = a * 17 + b;
                // Error estimated from the ZZ tomography setting's ideal
                // agreement (cheap proxy adequate for the ablation).
                NoisySimulator sim(device, options);
                const auto schedule = parallel.Schedule(tomo[8]);
                const auto ideal = sim.IdealProbabilities(schedule);
                const Counts counts = sim.Run(schedule, RunSpec{shots});
                const auto measured = counts.ToProbabilities();
                double tv = 0.0;
                for (size_t i = 0; i < ideal.size(); ++i) {
                    tv += std::abs(measured[i] - ideal[i]);
                }
                worst = 0.5 * tv;
                return worst;
            };
            const double with = run(true);
            const double without = run(false);
            table.Row(std::to_string(a) + "," + std::to_string(b), with,
                      without,
                      with > 1e-6 ? (with - without) / with : 0.0);
        }
        table.Print();
    }

    // --- Layout-policy ablation (extension) -----------------------------
    Banner("Ablation 5: placement policy (trivial vs noise-aware vs "
           "noise-aware + crosstalk penalty)");
    {
        // A 4-qubit logical workload that the placer may put anywhere.
        Circuit logical(4);
        for (int layer = 0; layer < 3; ++layer) {
            for (int q = 0; q < 4; ++q) {
                logical.U2(0.3 * (layer + 1), 0.7, q);
            }
            logical.CX(0, 1).CX(2, 3).CX(1, 2);
        }
        logical.MeasureAll();

        Table table({"policy", "modeled success", "measured CE",
                     "duration ns"});
        struct Policy {
            const char* name;
            LayoutPolicy layout;
            double penalty;
        };
        const std::vector<Policy> policies{
            {"trivial", LayoutPolicy::kTrivial, 0.0},
            {"noise-aware", LayoutPolicy::kNoiseAware, 0.0},
            {"noise-aware+xt", LayoutPolicy::kNoiseAware, 2.0},
        };
        for (const Policy& policy : policies) {
            CompilerOptions copts;
            copts.layout = policy.layout;
            copts.layout_crosstalk_penalty = policy.penalty;
            copts.scheduler = "xtalk";
            const CompileResult out =
                Compile(device, characterization, logical, copts);
            NoisySimOptions sim_options;
            sim_options.seed = 99;
            NoisySimulator sim(device, sim_options);
            const auto ideal = sim.IdealProbabilities(out.schedule);
            const Counts counts = sim.Run(out.schedule, RunSpec{shots});
            table.Row(policy.name, out.estimate.success_probability,
                      CrossEntropy(counts, ideal),
                      out.schedule.TotalDuration());
        }
        table.Print();
        std::cout << "\nError-only placement can *backfire* on "
                     "crosstalk-prone devices: the greedily chosen "
                     "low-error couplers may form a high-crosstalk pair, "
                     "forcing the scheduler to serialize. The crosstalk "
                     "penalty restores (and typically beats) the "
                     "trivial baseline — the placement-level version of "
                     "the paper's argument that compilers must know "
                     "about crosstalk.\n";
    }

    // --- 4. Margin criterion ---------------------------------------------
    Banner("Ablation 4: the absolute-margin high-crosstalk criterion");
    {
        int with_margin = 0, without_margin = 0;
        const auto one_hop = device.topology().EdgePairsAtDistance(1);
        for (const auto& [e1, e2] : one_hop) {
            for (const auto& [v, a] :
                 {std::pair{e1, e2}, std::pair{e2, e1}}) {
                if (characterization.IsHighCrosstalk(
                        v, a, HighCrosstalkCriteria{2.5, 0.015})) {
                    ++with_margin;
                }
                if (characterization.IsHighCrosstalk(
                        v, a, HighCrosstalkCriteria{2.5, 0.0})) {
                    ++without_margin;
                }
            }
        }
        const int truth =
            2 * static_cast<int>(
                    device.ground_truth().HighCrosstalkPairs(3.0).size());
        std::cout << "directed high-crosstalk readings at ratio >= 2.5:\n"
                  << "  with 1.5% absolute margin:    " << with_margin
                  << "\n  without the margin:           " << without_margin
                  << "\n  ground-truth directed pairs:  " << truth << "\n"
                  << "\nThe margin suppresses RB shot-noise false positives "
                     "on low-error couplers, which would otherwise cause "
                     "needless serialization.\n";
    }
    return 0;
}
