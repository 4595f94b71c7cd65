/**
 * @file
 * Figure 10 reproduction: crosstalk characterization time for the three
 * systems under the four policies (all pairs, Opt 1: one hop, Opt 2:
 * one hop + bin packing, Opt 3: only high-crosstalk pairs). Experiment
 * counts and batch structure come from the real planning algorithms on
 * the real topologies; wall-clock time uses the paper-calibrated cost
 * model (~1.27 ms per circuit execution, 100 sequences x 1024 trials per
 * SRB experiment).
 *
 * The final section measures *simulation* wall time: one full bin-packed
 * characterization of Poughkeepsie run on the parallel Executor at 1 and
 * at 8 worker threads, verifying the measured error rates are identical
 * and reporting the speedup.
 */
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_util.h"
#include "characterization/characterizer.h"
#include "characterization/cost_model.h"
#include "device/ibmq_devices.h"
#include "experiments/experiments.h"

using namespace xtalk;
using namespace xtalk::bench;

int
main()
{
    const RbConfig paper_budget = PaperScaleRbConfig();
    const CharacterizationCostModel model;

    Banner("Figure 10: characterization time (hours of device time)");
    Table table({"system", "all pairs", "opt1 one-hop", "opt2 +binpack",
                 "opt3 high-only", "reduction"});
    for (const Device& device : MakePaperDevices()) {
        Rng rng(device.name().size());
        const Topology& topo = device.topology();
        const auto all = BuildCharacterizationPlan(
            topo, CharacterizationPolicy::kAllPairs, rng);
        const auto one_hop = BuildCharacterizationPlan(
            topo, CharacterizationPolicy::kOneHop, rng);
        const auto packed = BuildCharacterizationPlan(
            topo, CharacterizationPolicy::kOneHopBinPacked, rng);
        // Opt 3 re-measures the stable high set discovered previously;
        // use the device ground truth as that prior discovery.
        const auto high_pairs =
            device.ground_truth().HighCrosstalkPairs(3.0);
        const auto high_only = BuildCharacterizationPlan(
            topo, CharacterizationPolicy::kHighOnly, rng, high_pairs);

        const double t_all = model.EstimateHours(all, paper_budget);
        const double t_one = model.EstimateHours(one_hop, paper_budget);
        const double t_packed = model.EstimateHours(packed, paper_budget);
        const double t_high = model.EstimateHours(high_only, paper_budget);
        table.Row(device.name(), t_all, t_one, t_packed, t_high,
                  std::to_string(static_cast<int>(t_all / t_high)) + "x");
    }
    table.Print();

    Banner("Plan details (experiments -> batches)");
    Table detail({"system", "simult. pairs", "1-hop pairs", "opt2 batches",
                  "high pairs", "opt3 batches"});
    for (const Device& device : MakePaperDevices()) {
        Rng rng(device.name().size());
        const Topology& topo = device.topology();
        const auto packed = BuildCharacterizationPlan(
            topo, CharacterizationPolicy::kOneHopBinPacked, rng);
        const auto high_pairs =
            device.ground_truth().HighCrosstalkPairs(3.0);
        const auto high_only = BuildCharacterizationPlan(
            topo, CharacterizationPolicy::kHighOnly, rng, high_pairs);
        detail.Row(device.name(),
                   static_cast<int>(topo.SimultaneousEdgePairs().size()),
                   static_cast<int>(topo.EdgePairsAtDistance(1).size()),
                   packed.NumBatches(),
                   static_cast<int>(high_pairs.size()),
                   high_only.NumBatches());
    }
    detail.Print();
    std::cout << "\npaper reference: all-pairs > 8 hours; Opt 1 ~5x fewer; "
                 "Opt 2 a further ~2x; Opt 3 a further 4-7x; total 35-73x, "
                 "landing under 15 minutes per system.\n";

    Banner("Simulation wall time: parallel Executor, 1 vs 8 threads");
    {
        const Device device = MakePoughkeepsie();
        Rng rng(7);
        const auto plan = BuildCharacterizationPlan(
            device.topology(), CharacterizationPolicy::kOneHopBinPacked,
            rng);
        auto run_at = [&](int threads, double* seconds) {
            runtime::ExecutorOptions exec;
            exec.num_threads = threads;
            CrosstalkCharacterizer characterizer(
                device,
                CharacterizerConfig{.rb = BenchRbConfig(), .exec = exec});
            const auto start = std::chrono::steady_clock::now();
            const auto result = characterizer.Run(plan);
            *seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
            return result;
        };
        double t1 = 0.0;
        double t8 = 0.0;
        const auto serial = run_at(1, &t1);
        const auto parallel = run_at(8, &t8);
        const bool identical =
            serial.conditional_entries() == parallel.conditional_entries() &&
            serial.independent_entries() == parallel.independent_entries();

        Table timing({"threads", "wall s", "speedup", "identical rates"});
        timing.Row(1, t1, "1.0x", "-");
        timing.Row(8, t8,
                   std::to_string(t1 / std::max(t8, 1e-9)) + "x",
                   identical ? "yes" : "NO (BUG)");
        timing.Print();
        const unsigned hw = std::thread::hardware_concurrency();
        std::cout << "\nhardware threads on this machine: " << hw << "\n";
        if (hw < 8) {
            std::cout << "NOTE: speedup is capped by physical cores; the "
                         "batch holds >1000 independent jobs, so expect "
                         "near-linear scaling up to 8 cores on larger "
                         "machines.\n";
        }
    }
    return 0;
}
