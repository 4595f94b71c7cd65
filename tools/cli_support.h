/**
 * @file
 * Command-line plumbing shared by the `xtalkc` and `xtalkd` front ends:
 * strict numeric flag parsing, the log-level setup, and the telemetry
 * files both write at exit.
 */
#ifndef XTALK_TOOLS_CLI_SUPPORT_H
#define XTALK_TOOLS_CLI_SUPPORT_H

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

namespace xtalk::cli {

/**
 * The value of numeric flag @p flag. All of @p text must spell a T in
 * [@p min, @p max]; otherwise (trailing characters such as the "e3" of
 * an integer "1e3", overflow, NaN) this prints an error naming the flag
 * and exits 2, the usage-error code. T follows @p min when one is
 * given.
 */
template <class T>
T
ParseNumericFlag(const std::string& flag, const std::string& text,
                 T min = std::numeric_limits<T>::lowest(),
                 T max = std::numeric_limits<T>::max())
{
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, error] = std::from_chars(text.data(), last, value);
    // Negated so NaN, which compares false both ways, is out of range.
    if (error != std::errc() || end != last ||
        !(value >= min && value <= max)) {
        std::cerr << "error: " << flag << " needs "
                  << (std::is_integral_v<T> ? "an integer" : "a number")
                  << " in [" << min << ", " << max << "], got '" << text
                  << "'\n";
        std::exit(2);
    }
    return value;
}

/**
 * Set the log level for a tool run. The tools narrate their pipeline at
 * info unless XTALK_LOG_LEVEL is set; @p flag, the `--log-level` value
 * ("" when absent), overrides either, and debug also turns on
 * timestamps. An unknown level prints an error and returns false; the
 * caller exits 2, the usage-error code.
 */
bool ApplyLogLevel(const std::string& flag);

/** Telemetry files a tool writes at exit; an empty path skips one. */
struct TelemetryPaths {
    std::string stats_json;
    std::string trace_json;
    std::string journal;
    std::string metrics_prom;
    std::string profile;
    std::string profile_collapsed;
};

/**
 * Write every file @p paths names: the metric registry as JSON, the
 * Chrome trace, the event journal as JSONL, OpenMetrics text, and the
 * profiler's cost tree and collapsed stacks. Reports each failure on
 * stderr and keeps going; true when every write landed.
 */
bool WriteTelemetryFiles(const TelemetryPaths& paths);

}  // namespace xtalk::cli

#endif  // XTALK_TOOLS_CLI_SUPPORT_H
