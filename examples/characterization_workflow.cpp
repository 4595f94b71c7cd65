/**
 * @file
 * Example: a realistic daily characterization workflow (paper Section 5).
 *
 * Models the operations loop of a device provider:
 *  - a *periodic* (e.g. weekly) full scan measures all 1-hop coupler
 *    pairs with bin-packed simultaneous RB and discovers the stable
 *    high-crosstalk set;
 *  - a *daily* fast pass re-measures only that set, keeping the
 *    characterization fresh at a tiny fraction of the cost;
 *  - the cost model reports the device time each policy would consume at
 *    paper-scale budgets (100 sequences x 1024 trials).
 *
 * Build: cmake --build build && ./build/examples/characterization_workflow
 */
#include <iomanip>
#include <iostream>

#include "characterization/cost_model.h"
#include "device/ibmq_devices.h"
#include "experiments/experiments.h"

using namespace xtalk;

int
main()
{
    Device device = MakeJohannesburg();
    const Topology& topo = device.topology();
    Rng rng(11);
    std::cout << std::fixed << std::setprecision(3);

    // --- Periodic full scan (day 0) -----------------------------------
    std::cout << "== periodic full scan (day 0) ==\n";
    const auto full_plan = BuildCharacterizationPlan(
        topo, CharacterizationPolicy::kOneHopBinPacked, rng);
    std::cout << full_plan.NumExperiments() << " SRB experiments packed into "
              << full_plan.NumBatches() << " parallel batches\n";

    CrosstalkCharacterizer characterizer(
        device, CharacterizerConfig{.rb = BenchRbConfig()});
    const auto full = characterizer.Run(full_plan);
    auto high = full.HighCrosstalkPairs(3.0);
    std::cout << "stable high-crosstalk set (" << high.size() << " pairs):\n";
    for (const auto& [e1, e2] : high) {
        std::cout << "  CX" << topo.edge(e1).a << "," << topo.edge(e1).b
                  << " | CX" << topo.edge(e2).a << "," << topo.edge(e2).b
                  << "  E(gi|gj)=" << full.ConditionalError(e1, e2)
                  << "  E(gi)=" << full.IndependentError(e1) << "\n";
    }

    // --- Daily fast pass over the following days -----------------------
    std::cout << "\n== daily fast pass (days 1-3) ==\n";
    const auto daily_plan = BuildCharacterizationPlan(
        topo, CharacterizationPolicy::kHighOnly, rng, high);
    std::cout << "daily plan: " << daily_plan.NumExperiments()
              << " experiments in " << daily_plan.NumBatches()
              << " batches\n";
    for (int day = 1; day <= 3; ++day) {
        device.SetDay(day);
        CrosstalkCharacterizer daily(
            device, CharacterizerConfig{.rb = BenchRbConfig(day * 7)});
        const auto update = daily.Run(daily_plan);
        std::cout << "day " << day << ":";
        for (const auto& [pair, value] : update.conditional_entries()) {
            std::cout << "  E(" << pair.first << "|" << pair.second
                      << ")=" << value;
        }
        std::cout << "\n";
    }

    // --- Device-time budgets at paper scale ----------------------------
    std::cout << "\n== device-time cost at paper-scale budgets ==\n";
    const RbConfig paper = PaperScaleRbConfig();
    const CharacterizationCostModel model;
    const auto all_pairs = BuildCharacterizationPlan(
        topo, CharacterizationPolicy::kAllPairs, rng);
    std::cout << "all-pairs baseline: "
              << model.EstimateHours(all_pairs, paper) << " h\n"
              << "bin-packed 1-hop:   "
              << model.EstimateHours(full_plan, paper) << " h\n"
              << "daily high-only:    "
              << model.EstimateHours(daily_plan, paper) * 60.0 << " min\n";
    return 0;
}
