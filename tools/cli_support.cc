#include "cli_support.h"

#include "common/logging.h"
#include "telemetry/journal.h"
#include "telemetry/openmetrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk::cli {

namespace {

bool
WriteJournal(const std::string& path, std::string* error)
{
    return telemetry::Journal::Global().WriteJsonl(path, error);
}

}  // namespace

bool
ApplyLogLevel(const std::string& flag)
{
    if (std::getenv("XTALK_LOG_LEVEL") == nullptr) {
        SetLogLevel(LogLevel::kInform);
    }
    if (flag.empty()) {
        return true;
    }
    LogLevel level;
    if (!ParseLogLevel(flag, &level)) {
        std::cerr << "error: unknown log level '" << flag << "'\n";
        return false;
    }
    SetLogLevel(level);
    // Debug runs get monotonic timestamps for free.
    if (level == LogLevel::kDebug) {
        SetLogTimestamps(true);
    }
    return true;
}

bool
WriteTelemetryFiles(const TelemetryPaths& paths)
{
    const struct {
        const std::string& path;
        const char* what;
        bool (*write)(const std::string&, std::string*);
    } outputs[] = {
        {paths.stats_json, "telemetry stats", &telemetry::WriteStatsJson},
        {paths.trace_json, "Chrome trace", &telemetry::WriteTraceJson},
        {paths.journal, "event journal", &WriteJournal},
        {paths.metrics_prom, "OpenMetrics", &telemetry::WriteOpenMetrics},
        {paths.profile, "profile cost tree", &telemetry::WriteProfileJson},
        {paths.profile_collapsed, "collapsed stacks",
         &telemetry::WriteCollapsedStacks},
    };
    bool ok = true;
    for (const auto& output : outputs) {
        if (output.path.empty()) {
            continue;
        }
        std::string error;
        if (output.write(output.path, &error)) {
            Inform(std::string("wrote ") + output.what + " to " +
                   output.path);
        } else {
            std::cerr << "error: " << error << "\n";
            ok = false;
        }
    }
    return ok;
}

}  // namespace xtalk::cli
