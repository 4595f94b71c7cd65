/**
 * @file
 * Differential oracle: cross-backend validation of compiled schedules.
 *
 * One adversarial circuit (workloads/adversarial.h) is compiled once,
 * and the *same* schedule is executed by every backend that can model
 * it:
 *
 *  - the Monte-Carlo statevector trajectory engine (`NoisySimulator`),
 *  - the exact density-matrix replay (`ReplayScheduleDensity`), and
 *  - for Clifford-only circuits, the Pauli-twirled stabilizer engine.
 *
 * Agreement is asserted two ways. Sampled backends must land within a
 * TVD threshold of the exact distribution, where the threshold scales
 * with the multinomial sampling error sqrt(support/shots) so the check
 * is meaningful at any shot budget. Deterministic projections must be
 * *exact*: a same-seed trajectory rerun is bit-identical, the
 * noise-free replay matches `NoisySimulator::IdealProbabilities`
 * elementwise, and the exact engine (`ExactDistribution`, which
 * default-backend Executor jobs sample) matches the replay to 1e-12.
 *
 * With a fault plan active the oracle re-runs each case and requires
 * every injected `Error` to either heal bit-identically (retry with
 * identical seeds) or surface as a structured degradation
 * (`CompileResult::degradation` != "none", or a thrown `Error`) —
 * never as a silent numeric divergence. `InternalError` always
 * propagates out of the oracle itself.
 */
#ifndef XTALK_DIFFTEST_DIFFTEST_H
#define XTALK_DIFFTEST_DIFFTEST_H

#include <string>
#include <vector>

#include "characterization/characterizer.h"
#include "compiler/compiler.h"
#include "device/device.h"
#include "workloads/adversarial.h"

namespace xtalk::difftest {

/** Knobs for one oracle sweep. */
struct OracleOptions {
    /** Families to generate; empty = all four. */
    std::vector<AdversarialFamily> families;
    /** Devices to sweep; empty = the three 20-qubit paper devices. */
    std::vector<Device> devices;
    uint64_t seed = 2020;
    int shots = 2048;
    /** Active-window cap; must stay <= 10 for the exact replay. */
    int max_qubits = 5;
    int intensity = 2;
    /** TVD slack on top of the sqrt(support/shots) sampling term. */
    double base_tvd = 0.03;
    /** Compile policy key (greedy by default: fast and deterministic). */
    std::string scheduler = "greedy";
    /**
     * Fault plan to re-run each case under (faults grammar); empty =
     * fault-free baseline only. Installed via ScopedFaultPlan, so an
     * ambient XTALK_FAULTS plan is restored afterwards.
     */
    std::string fault_plan;
};

/** Verdict for one (family, device) case. */
struct CaseResult {
    std::string family;
    std::string device;
    uint64_t seed = 0;
    int width = 0;       ///< Active qubits in the compiled schedule.
    int depth = 0;       ///< Logical circuit depth.
    bool clifford = false;
    double tvd_sv_dm = 0.0;    ///< Trajectory histogram vs exact replay.
    double tvd_stab_dm = 0.0;  ///< Stabilizer arm (0 when not run).
    double threshold = 0.0;    ///< Effective TVD bound for this case.
    std::string degradation;   ///< Fault-free compile degradation.
    /** Fault-mode outcome: "", "healed", "degraded", or "error: ...". */
    std::string fault_outcome;
    /** Human-readable divergence descriptions; empty = case passed. */
    std::vector<std::string> failures;

    bool passed() const { return failures.empty(); }
    /** One report line (family/device/verdict/metrics). */
    std::string Line() const;
};

/** Aggregate result of an oracle sweep. */
struct OracleReport {
    std::vector<CaseResult> cases;

    int divergences() const;
    bool ok() const { return divergences() == 0; }
    /** Multi-line human-readable report. */
    std::string Summary() const;
    /** Machine-readable JSON (one object, `cases` array). */
    std::string ToJson() const;
};

/**
 * Sweep families x devices: generate, compile once, run every backend,
 * compare. Throws only on misuse or InternalError; backend divergences
 * are reported, not thrown.
 */
OracleReport RunDifferentialOracle(const OracleOptions& options = {});

}  // namespace xtalk::difftest

#endif  // XTALK_DIFFTEST_DIFFTEST_H
