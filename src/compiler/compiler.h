/**
 * @file
 * The end-to-end compilation pipeline (the facade a downstream user
 * adopts): logical circuit -> placement -> SWAP routing -> crosstalk-
 * adaptive scheduling -> barriered executable, mirroring the paper's
 * Figure 2 toolflow in one call.
 *
 *   CompilerOptions options;
 *   options.layout = LayoutPolicy::kNoiseAware;
 *   CompileResult out = Compile(device, characterization, logical,
 *                               options);
 *   // out.executable is ready to run; out.schedule carries timing.
 *
 * Compile() is a thin wrapper over the pass-manager pipeline (pass.h /
 * pass_manager.h / passes.h): layout -> route -> schedule ->
 * lower-barriers -> estimate, with optional inter-pass verification
 * (CompilerOptions::verify_passes or XTALK_VERIFY_PASSES=1). Custom
 * pipelines are built by name; see docs/ARCHITECTURE.md.
 */
#ifndef XTALK_COMPILER_COMPILER_H
#define XTALK_COMPILER_COMPILER_H

#include <optional>
#include <string>
#include <vector>

#include "characterization/characterizer.h"
#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "device/device.h"
#include "scheduler/analysis.h"
#include "scheduler/portfolio.h"
#include "scheduler/xtalk_scheduler.h"

namespace xtalk {

/** Placement policies. */
enum class LayoutPolicy {
    kTrivial,     ///< logical i -> physical i.
    kNoiseAware,  ///< Greedy error/crosstalk-aware placement.
};

/** Stable layout policy names ("trivial" / "noise-aware") — the
 *  spellings `xtalkc --layout` accepts and the service request schema
 *  uses. */
const char* LayoutPolicyName(LayoutPolicy policy);

/** Inverse of LayoutPolicyName; false on an unknown name. */
bool ParseLayoutPolicy(const std::string& name, LayoutPolicy* policy);

/**
 * Scheduler policy keys (Table 1, the classical ablations, and the
 * racing portfolio) are the portfolio registry's member keys plus
 * "portfolio" (scheduler/portfolio.h); every policy is a portfolio
 * run. Copies @p name into @p policy when it is one; false otherwise.
 */
bool ParseSchedulerPolicy(const std::string& name, std::string* policy);

/** Pipeline configuration. */
struct CompilerOptions {
    LayoutPolicy layout = LayoutPolicy::kNoiseAware;
    /** Scheduler policy key: a portfolio member key, which races that
     *  member and its registry backups (LineupFor), or "portfolio". */
    std::string scheduler = "xtalk";
    /** XtalkSched options (omega ignored by the auto-omega member).
     *  GreedySched and AnnealSched run at its omega; every scheduler
     *  applies the same high-crosstalk test, HighCrosstalkCriteria{}. */
    XtalkSchedulerOptions xtalk;
    /** ω candidates for the auto-omega member. */
    std::vector<double> omega_candidates = DefaultOmegaCandidates();
    /**
     * Member keys the "portfolio" policy races, in tie-break rank order
     * (PortfolioRegistry() lists the valid keys). Empty =
     * DefaultPortfolio().
     */
    std::vector<std::string> portfolio;
    /**
     * Advisory wall-clock budget per racing member, in ms; 0 = none.
     * Members run concurrently, so this is per member, not a total.
     */
    unsigned portfolio_budget_ms = 0;
    /**
     * Penalize placing interacting pairs on couplers with high-crosstalk
     * partnerships (kNoiseAware only).
     */
    double layout_crosstalk_penalty = 0.5;
    /**
     * Run the inter-pass verification passes (connectivity legality,
     * per-qubit order and gate-multiset preservation, simultaneous-
     * readout constraint) after every transform pass. Also enabled
     * process-wide by the environment variable XTALK_VERIFY_PASSES=1.
     */
    bool verify_passes = false;
};

/** Everything the pipeline produces. */
struct CompileResult {
    /** Hardware circuit with ordering barriers — ready to execute. */
    Circuit executable{1};
    /** The timed schedule behind the executable. */
    ScheduledCircuit schedule{1};
    /** initial_layout[logical] = physical. */
    std::vector<QubitId> initial_layout;
    /** final_layout[logical] = physical after routing SWAPs. */
    std::vector<QubitId> final_layout;
    /** Modeled quality under the characterized error model. */
    ScheduleErrorEstimate estimate;
    /**
     * Omega actually used. Present only when an omega-using scheduler
     * ran (XtalkSched, XtalkSched(auto), GreedySched); SerialSched and
     * ParSched results carry no omega.
     */
    std::optional<double> omega;
    /** Scheduler that produced the schedule ("XtalkSched", ...). */
    std::string scheduler_name;
    /**
     * "none" when the preferred scheduler won its race; otherwise the
     * winning member's policy key ("greedy", "parallel", ...) — a
     * member ranked ahead of the winner failed, so the compile shipped
     * a degraded-but-valid schedule (the legacy xtalk→greedy→parallel
     * chain semantics, generalized to any portfolio).
     */
    std::string degradation = "none";
    /** Why it degraded ("" when degradation == "none"). */
    std::string degradation_reason;
    /** Per-member race outcomes, in rank order (who won, who lost with
     *  what score, who failed and why). */
    std::vector<PortfolioMemberOutcome> portfolio;
    /** One-line notes from each pipeline pass, in execution order. */
    std::vector<std::string> pass_diagnostics;
};

/**
 * Run the full pipeline on a logical circuit. The circuit may be
 * narrower than the device; two-qubit gates may connect any logical
 * pair (routing inserts SWAPs).
 */
CompileResult Compile(const Device& device,
                      const CrosstalkCharacterization& characterization,
                      const Circuit& logical,
                      const CompilerOptions& options = {});

}  // namespace xtalk

#endif  // XTALK_COMPILER_COMPILER_H
