/**
 * @file
 * The built-in transform passes wrapping the existing toolflow layers
 * (paper Figure 2): placement (src/transpile/layout), SWAP routing
 * (src/transpile/routing), scheduling with any policy of the portfolio
 * registry (src/scheduler/portfolio.h), barrier lowering, and the
 * schedule quality estimate.
 *
 * Names in the pass table (see pass_manager.h; `xtalkc --list-passes`):
 *   layout               placement with the policy from CompilerOptions
 *   layout:trivial       TrivialLayout regardless of options
 *   layout:noise-aware   NoiseAwareLayout regardless of options
 *   route                meet-in-the-middle SWAP routing
 *   schedule             scheduler policy from CompilerOptions
 *   schedule:<key>       one forced policy per registry member key:
 *                        schedule:serial, schedule:parallel,
 *                        schedule:greedy, schedule:anneal,
 *                        schedule:xtalk (at CompilerOptions::xtalk.omega),
 *                        schedule:auto (model-guided omega selection)
 *   schedule:portfolio   race CompilerOptions::portfolio (or the
 *                        default list), keep the best candidate
 *   lower-barriers       executable from the schedule (+ SMT barriers)
 *   estimate             modeled success under the characterization
 * plus the verification passes listed in verification.h.
 */
#ifndef XTALK_COMPILER_PASSES_H
#define XTALK_COMPILER_PASSES_H

#include <optional>
#include <string>
#include <utility>

#include "compiler/pass.h"

namespace xtalk {

/** Placement: fills initial_layout. */
class LayoutPass : public Pass {
  public:
    /** No @p forced policy = follow CompilerOptions::layout. */
    explicit LayoutPass(std::optional<LayoutPolicy> forced = std::nullopt)
        : forced_(forced)
    {
    }
    std::string name() const override;
    std::string description() const override;
    void Run(CompilationState& state) override;

  private:
    std::optional<LayoutPolicy> forced_;
};

/** SWAP-insertion routing: fills routed and final_layout. */
class RoutingPass : public Pass {
  public:
    std::string name() const override { return "route"; }
    std::string description() const override;
    void Run(CompilationState& state) override;
};

/** Scheduling: fills schedule, scheduler_name, omega, and (for the SMT
 *  policies) the ordering artifacts consumed by BarrierLoweringPass. */
class SchedulePass : public Pass {
  public:
    /** No @p forced policy key = follow CompilerOptions::scheduler. */
    explicit SchedulePass(std::optional<std::string> forced = std::nullopt)
        : forced_(std::move(forced))
    {
    }
    std::string name() const override;
    std::string description() const override;
    void Run(CompilationState& state) override;

  private:
    std::optional<std::string> forced_;
};

/**
 * Lower the schedule to the barriered executable: when SMT ordering
 * artifacts are present, insert the ordering barriers that pin the
 * solver's serialization decisions; otherwise the executable is the
 * schedule's gate sequence.
 */
class BarrierLoweringPass : public Pass {
  public:
    std::string name() const override { return "lower-barriers"; }
    std::string description() const override;
    void Run(CompilationState& state) override;
};

/** Evaluate the schedule under the characterized error model. */
class EstimatePass : public Pass {
  public:
    std::string name() const override { return "estimate"; }
    std::string description() const override;
    void Run(CompilationState& state) override;
};

}  // namespace xtalk

#endif  // XTALK_COMPILER_PASSES_H
