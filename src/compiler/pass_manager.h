/**
 * @file
 * PassManager: runs a named sequence of passes over a CompilationState
 * with per-pass telemetry, plus the table of built-in passes by name
 * behind `xtalkc --passes` / `--list-passes`.
 *
 * Telemetry per executed pass (when telemetry is enabled):
 *  - a scoped span `compiler.pass.<name>` (Chrome trace event plus the
 *    `span.compiler.pass.<name>.ms` histogram);
 *  - the histogram `compiler.pass.<name>.duration_us`;
 *  - the counter `compiler.pass.<name>.runs`.
 *
 * With PassManagerOptions::verify set, every applicable verification
 * pass (see verification.h) runs after each transform pass; a failure
 * is rethrown as an xtalk::Error naming both the verifier and the pass
 * it ran after. Any pass failure is likewise wrapped with the pass
 * name and pipeline position, so a broken ordering (e.g. scheduling
 * before routing a non-adjacent circuit) reports the offending pass.
 */
#ifndef XTALK_COMPILER_PASS_MANAGER_H
#define XTALK_COMPILER_PASS_MANAGER_H

#include <memory>
#include <string>
#include <vector>

#include "compiler/pass.h"

namespace xtalk {

/** Pass-manager configuration. */
struct PassManagerOptions {
    /** Run applicable verification passes after each transform pass. */
    bool verify = false;
};

/** True when XTALK_VERIFY_PASSES is set to anything but "" / "0"
 *  (read once at first call). */
bool VerifyPassesRequestedByEnv();

/** Table metadata for one pass. */
struct PassInfo {
    std::string name;
    std::string description;
    bool verification = false;
};

/**
 * Instantiate a built-in pass by name; throws xtalk::Error on unknown
 * name (the message lists the known names). A custom pass joins a
 * pipeline through PassManager::AddPass(std::unique_ptr<Pass>).
 */
std::unique_ptr<Pass> CreateRegisteredPass(const std::string& name);

/** All built-in passes, sorted by name. */
std::vector<PassInfo> RegisteredPasses();

/** Ordered pass sequence executor. */
class PassManager {
  public:
    explicit PassManager(PassManagerOptions options = {});
    ~PassManager();
    PassManager(PassManager&&) noexcept;
    PassManager& operator=(PassManager&&) noexcept;

    /** Append a pass instance. Returns *this for chaining. */
    PassManager& AddPass(std::unique_ptr<Pass> pass);

    /** Append a built-in pass by name; throws on unknown name. */
    PassManager& AddPass(const std::string& name);

    int size() const { return static_cast<int>(passes_.size()); }
    std::vector<std::string> PassNames() const;
    const PassManagerOptions& options() const { return options_; }

    /**
     * Run every pass in order. Throws xtalk::Error naming the failing
     * pass (and, under verify, the failing verifier) on the first
     * failure; the state retains the products of completed passes.
     */
    void Run(CompilationState& state) const;

  private:
    void RunVerificationSweep(CompilationState& state,
                              const std::string& after_pass) const;

    PassManagerOptions options_;
    std::vector<std::unique_ptr<Pass>> passes_;
    // Lazily built verifier instances for the auto-verify sweep.
    mutable std::vector<std::unique_ptr<Pass>> verifiers_;
};

/**
 * The default Figure 2 toolflow: layout, route, schedule,
 * lower-barriers, estimate. Policies are read from the state's
 * CompilerOptions at run time.
 */
PassManager MakeDefaultPipeline(PassManagerOptions options = {});

}  // namespace xtalk

#endif  // XTALK_COMPILER_PASS_MANAGER_H
