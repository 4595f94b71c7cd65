#include "compiler/pass_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "common/error.h"
#include "compiler/verification.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace detail {
// Defined in passes.cc; registers every built-in pass exactly once.
void RegisterBuiltinPasses();
}  // namespace detail

namespace {

struct RegistryEntry {
    PassInfo info;
    std::function<std::unique_ptr<Pass>()> factory;
};

struct PassRegistry {
    std::mutex mu;
    std::map<std::string, RegistryEntry> entries;
};

PassRegistry&
GlobalRegistry()
{
    // Leaked on purpose: a shared-pool worker may look a pass up after
    // static destruction has begun at exit.
    static PassRegistry* registry = new PassRegistry;
    return *registry;
}

void
EnsureBuiltins()
{
    static std::once_flag once;
    std::call_once(once, [] { detail::RegisterBuiltinPasses(); });
}

/** Microsecond buckets from 1us to ~100s in ~3x steps. */
const std::vector<double>&
DurationUsBuckets()
{
    static const std::vector<double> buckets{
        1.0,   3.0,   10.0,  30.0,  100.0, 300.0, 1e3, 3e3,
        1e4,   3e4,   1e5,   3e5,   1e6,   3e6,   1e7, 3e7,
        1e8};
    return buckets;
}

}  // namespace

bool
VerifyPassesRequestedByEnv()
{
    static const bool requested = [] {
        const char* env = std::getenv("XTALK_VERIFY_PASSES");
        return env != nullptr && *env != '\0' && std::string(env) != "0";
    }();
    return requested;
}

void
RegisterPass(PassInfo info, std::function<std::unique_ptr<Pass>()> factory)
{
    XTALK_REQUIRE(!info.name.empty(), "pass name must not be empty");
    XTALK_REQUIRE(factory != nullptr,
                  "pass '" << info.name << "' needs a factory");
    PassRegistry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    const auto [it, inserted] = registry.entries.emplace(
        info.name, RegistryEntry{info, std::move(factory)});
    (void)it;
    XTALK_REQUIRE(inserted,
                  "pass '" << info.name << "' is already registered");
}

std::unique_ptr<Pass>
CreateRegisteredPass(const std::string& name)
{
    EnsureBuiltins();
    PassRegistry& registry = GlobalRegistry();
    std::function<std::unique_ptr<Pass>()> factory;
    {
        std::lock_guard<std::mutex> lock(registry.mu);
        const auto it = registry.entries.find(name);
        if (it == registry.entries.end()) {
            std::ostringstream known;
            for (const auto& [known_name, entry] : registry.entries) {
                (void)entry;
                known << (known.tellp() > 0 ? ", " : "") << known_name;
            }
            XTALK_REQUIRE(false, "unknown pass '"
                                     << name << "'; registered passes: "
                                     << known.str());
        }
        factory = it->second.factory;
    }
    return factory();
}

std::vector<PassInfo>
RegisteredPasses()
{
    EnsureBuiltins();
    PassRegistry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    std::vector<PassInfo> infos;
    infos.reserve(registry.entries.size());
    for (const auto& [name, entry] : registry.entries) {
        (void)name;
        infos.push_back(entry.info);
    }
    return infos;  // std::map iteration is already name-sorted.
}

PassManager::PassManager(PassManagerOptions options) : options_(options) {}
PassManager::~PassManager() = default;
PassManager::PassManager(PassManager&&) noexcept = default;
PassManager& PassManager::operator=(PassManager&&) noexcept = default;

PassManager&
PassManager::AddPass(std::unique_ptr<Pass> pass)
{
    XTALK_REQUIRE(pass != nullptr, "cannot add a null pass");
    passes_.push_back(std::move(pass));
    return *this;
}

PassManager&
PassManager::AddPass(const std::string& name)
{
    return AddPass(CreateRegisteredPass(name));
}

std::vector<std::string>
PassManager::PassNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto& pass : passes_) {
        names.push_back(pass->name());
    }
    return names;
}

void
PassManager::Run(CompilationState& state) const
{
    const int n = size();
    state.logical.RequireTerminalMeasures();
    for (int i = 0; i < n; ++i) {
        Pass& pass = *passes_[i];
        const std::string span_name = "compiler.pass." + pass.name();
        const auto t0 = std::chrono::steady_clock::now();
        telemetry::JournalEmit("pass.begin",
                               {{"pass", pass.name()},
                                {"index", i + 1},
                                {"of", n}});
        {
            telemetry::ScopedSpan span(span_name.c_str());
            try {
                pass.Run(state);
            } catch (const InternalError&) {
                throw;  // Library bugs keep their original report.
            } catch (const Error& e) {
                telemetry::JournalEmit("pass.error",
                                       {{"pass", pass.name()},
                                        {"error", std::string(e.what())}});
                throw Error("pass '" + pass.name() + "' (" +
                            std::to_string(i + 1) + "/" +
                            std::to_string(n) + " in pipeline) failed: " +
                            e.what());
            }
        }
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (telemetry::Enabled()) {
            telemetry::GetHistogram(span_name + ".duration_us",
                                    DurationUsBuckets())
                .Record(us);
            telemetry::GetCounter(span_name + ".runs").Add(1);
        }
        telemetry::JournalEmit("pass.end",
                               {{"pass", pass.name()},
                                {"duration_us", us}});
        if (options_.verify && !pass.is_verification()) {
            RunVerificationSweep(state, pass.name());
        }
    }
}

void
PassManager::RunVerificationSweep(CompilationState& state,
                                  const std::string& after_pass) const
{
    if (verifiers_.empty()) {
        verifiers_ = MakeVerificationPasses();
    }
    for (const auto& verifier : verifiers_) {
        if (!verifier->Applicable(state)) {
            continue;
        }
        if (telemetry::Enabled()) {
            telemetry::GetCounter("compiler.verify.checks").Add(1);
        }
        try {
            verifier->Run(state);
        } catch (const InternalError&) {
            throw;
        } catch (const Error& e) {
            if (telemetry::Enabled()) {
                telemetry::GetCounter("compiler.verify.failures").Add(1);
            }
            telemetry::JournalEmit("verify.failure",
                                   {{"verifier", verifier->name()},
                                    {"after_pass", after_pass},
                                    {"error", std::string(e.what())}});
            throw Error("verification pass '" + verifier->name() +
                        "' failed after pass '" + after_pass +
                        "': " + e.what());
        }
    }
}

PassManager
MakeDefaultPipeline(PassManagerOptions options)
{
    PassManager manager(options);
    manager.AddPass("layout")
        .AddPass("route")
        .AddPass("schedule")
        .AddPass("lower-barriers")
        .AddPass("estimate");
    return manager;
}

}  // namespace xtalk
