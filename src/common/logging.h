/**
 * @file
 * Minimal status logging, following the gem5 inform()/warn() convention:
 * these report simulation status to the user and never stop execution.
 *
 * Environment plumbing (read once at first use):
 *  - XTALK_LOG_LEVEL=quiet|warn|info|debug sets the initial verbosity;
 *  - XTALK_LOG_TIMESTAMPS=1 prefixes every line with a monotonic
 *    "[+12.345678s]" timestamp (seconds since process start).
 *
 * Each message is formatted into a single string and written with one
 * stream insertion, so concurrent threads (SRB workers, simulator
 * shards) never interleave mid-line.
 */
#ifndef XTALK_COMMON_LOGGING_H
#define XTALK_COMMON_LOGGING_H

#include <string>

namespace xtalk {

/** Verbosity levels; messages below the global level are suppressed. */
enum class LogLevel { kQuiet = 0, kWarn = 1, kInform = 2, kDebug = 3 };

/** Set the global verbosity (default kWarn). */
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/**
 * Parse "quiet" | "warn" | "info" (or "inform") | "debug" into a level.
 * Returns false (leaving @p out untouched) on anything else.
 */
bool ParseLogLevel(const std::string& text, LogLevel* out);

/** Prefix every message with a monotonic timestamp. */
void SetLogTimestamps(bool enabled);

/** Informative status message (stderr), suppressed below kInform. */
void Inform(const std::string& msg);

/** Warning about questionable but survivable conditions. */
void Warn(const std::string& msg);

/** Debug chatter, suppressed below kDebug. */
void Debug(const std::string& msg);

}  // namespace xtalk

#endif  // XTALK_COMMON_LOGGING_H
