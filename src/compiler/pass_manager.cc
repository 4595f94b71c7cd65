#include "compiler/pass_manager.h"

#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>

#include "common/error.h"
#include "compiler/passes.h"
#include "compiler/verification.h"
#include "scheduler/portfolio.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

/** A built-in pass's metadata and its factory. */
struct PassTableEntry {
    PassInfo info;
    std::function<std::unique_ptr<Pass>()> make;
};

/**
 * Every built-in pass by name, built once: the transform passes, one
 * forced schedule pass per PortfolioRegistry() row, and the
 * verification passes. A row's metadata is read from the pass its
 * factory builds, so names and descriptions live only in the pass
 * classes. Leaked on purpose: a shared-pool worker may look a pass up
 * after static destruction has begun at exit.
 */
const std::map<std::string, PassTableEntry>&
PassTable()
{
    static const auto* table = [] {
        auto* rows = new std::map<std::string, PassTableEntry>;
        const auto add = [rows](std::function<std::unique_ptr<Pass>()> make) {
            const std::unique_ptr<Pass> pass = make();
            PassInfo info{pass->name(), pass->description(),
                          pass->is_verification()};
            const std::string name = info.name;
            const bool inserted =
                rows->emplace(name, PassTableEntry{std::move(info),
                                                   std::move(make)})
                    .second;
            XTALK_ASSERT(inserted, "pass '" << name << "' listed twice");
        };
        add([] { return std::make_unique<LayoutPass>(); });
        add([] {
            return std::make_unique<LayoutPass>(LayoutPolicy::kTrivial);
        });
        add([] {
            return std::make_unique<LayoutPass>(LayoutPolicy::kNoiseAware);
        });
        add([] { return std::make_unique<RoutingPass>(); });
        add([] { return std::make_unique<SchedulePass>(); });
        for (const PortfolioMemberInfo& row : PortfolioRegistry()) {
            add([key = row.key] {
                return std::make_unique<SchedulePass>(key);
            });
        }
        add([] { return std::make_unique<SchedulePass>(kPortfolioPolicy); });
        add([] { return std::make_unique<BarrierLoweringPass>(); });
        add([] { return std::make_unique<EstimatePass>(); });
        add([] { return std::make_unique<VerifyLayoutPass>(); });
        add([] { return std::make_unique<VerifyConnectivityPass>(); });
        add([] { return std::make_unique<VerifyOrderPass>(); });
        add([] { return std::make_unique<VerifyReadoutPass>(); });
        add([] { return std::make_unique<VerifyExecutablePass>(); });
        return rows;
    }();
    return *table;
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

std::unique_ptr<Pass>
CreateRegisteredPass(const std::string& name)
{
    const std::map<std::string, PassTableEntry>& table = PassTable();
    const auto it = table.find(name);
    if (it == table.end()) {
        std::ostringstream known;
        for (const auto& [known_name, entry] : table) {
            (void)entry;
            known << (known.tellp() > 0 ? ", " : "") << known_name;
        }
        XTALK_REQUIRE(false, "unknown pass '" << name
                                              << "'; registered passes: "
                                              << known.str());
    }
    return it->second.make();
}

std::vector<PassInfo>
RegisteredPasses()
{
    std::vector<PassInfo> infos;
    for (const auto& [name, entry] : PassTable()) {
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
