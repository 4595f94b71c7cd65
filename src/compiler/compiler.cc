#include "compiler/compiler.h"

#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

const char*
LayoutPolicyName(LayoutPolicy policy)
{
    switch (policy) {
      case LayoutPolicy::kTrivial:
        return "trivial";
      case LayoutPolicy::kNoiseAware:
        return "noise-aware";
    }
    return "?";
}

bool
ParseLayoutPolicy(const std::string& name, LayoutPolicy* policy)
{
    for (LayoutPolicy p : {LayoutPolicy::kTrivial, LayoutPolicy::kNoiseAware}) {
        if (name == LayoutPolicyName(p)) {
            *policy = p;
            return true;
        }
    }
    return false;
}

bool
ParseSchedulerPolicy(const std::string& name, std::string* policy)
{
    if (!IsSchedulerPolicy(name)) {
        return false;
    }
    *policy = name;
    return true;
}

CompileResult
Compile(const Device& device,
        const CrosstalkCharacterization& characterization,
        const Circuit& logical, const CompilerOptions& options)
{
    telemetry::ScopedSpan total_span("compile.total");
    if (telemetry::Enabled()) {
        telemetry::GetCounter("compile.invocations").Add(1);
        telemetry::GetCounter("compile.input_gates")
            .Add(static_cast<uint64_t>(logical.size()));
    }
    CompilationState state(device, characterization, logical, options);
    PassManagerOptions manager_options;
    manager_options.verify =
        options.verify_passes || VerifyPassesRequestedByEnv();
    MakeDefaultPipeline(manager_options).Run(state);
    return state.ToResult();
}

}  // namespace xtalk
