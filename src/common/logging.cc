#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace xtalk {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<bool> g_timestamps{false};

std::chrono::steady_clock::time_point
ProcessStart()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

/** One-time environment plumbing: XTALK_LOG_LEVEL, XTALK_LOG_TIMESTAMPS. */
struct EnvInit {
    EnvInit()
    {
        ProcessStart();  // Pin the timestamp origin early.
        if (const char* env = std::getenv("XTALK_LOG_LEVEL")) {
            LogLevel level;
            if (ParseLogLevel(env, &level)) {
                g_level.store(level);
            }
        }
        if (const char* env = std::getenv("XTALK_LOG_TIMESTAMPS")) {
            g_timestamps.store(std::string(env) != "0");
        }
    }
};
const EnvInit g_env_init;

void
Emit(LogLevel required, const char* tag, const std::string& msg)
{
    if (static_cast<int>(g_level.load()) < static_cast<int>(required)) {
        return;
    }
    // Format the whole line first and insert it with a single stream
    // operation; two-part insertion interleaves under concurrent
    // SRB/simulator threads.
    std::string line;
    line.reserve(msg.size() + 32);
    if (g_timestamps.load()) {
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          ProcessStart())
                .count();
        char stamp[32];
        std::snprintf(stamp, sizeof(stamp), "[+%.6fs] ", seconds);
        line += stamp;
    }
    line += tag;
    line += msg;
    line += '\n';
    std::cerr << line;
}

}  // namespace

void
SetLogLevel(LogLevel level)
{
    g_level.store(level);
}

LogLevel
GetLogLevel()
{
    return g_level.load();
}

bool
ParseLogLevel(const std::string& text, LogLevel* out)
{
    if (text == "quiet") {
        *out = LogLevel::kQuiet;
    } else if (text == "warn") {
        *out = LogLevel::kWarn;
    } else if (text == "info" || text == "inform") {
        *out = LogLevel::kInform;
    } else if (text == "debug") {
        *out = LogLevel::kDebug;
    } else {
        return false;
    }
    return true;
}

void
SetLogTimestamps(bool enabled)
{
    g_timestamps.store(enabled);
}

void
Inform(const std::string& msg)
{
    Emit(LogLevel::kInform, "info: ", msg);
}

void
Warn(const std::string& msg)
{
    Emit(LogLevel::kWarn, "warn: ", msg);
}

void
Debug(const std::string& msg)
{
    Emit(LogLevel::kDebug, "debug: ", msg);
}

}  // namespace xtalk
