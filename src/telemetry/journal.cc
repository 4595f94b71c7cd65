#include "telemetry/journal.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"

namespace xtalk::telemetry {

namespace internal {
std::atomic<bool> g_journal{false};
}  // namespace internal

namespace {

/** Read XTALK_JOURNAL once at process start. */
struct EnvInit {
    EnvInit()
    {
        if (const char* env = std::getenv("XTALK_JOURNAL")) {
            internal::g_journal.store(std::string(env) != "0");
        }
    }
};
const EnvInit g_env_init;

struct Shard {
    mutable std::mutex mu;
    std::vector<JournalRecord> events;
    size_t capacity = Journal::kDefaultShardCapacity;
    uint64_t dropped = 0;
    uint64_t next_seq = 1;
};

}  // namespace

void
SetJournalEnabled(bool enabled)
{
    internal::g_journal.store(enabled);
}

struct Journal::Impl {
    std::array<Shard, Journal::kNumShards> shards;
};

// Leaked on purpose: a shared-pool worker may emit an event after
// static destruction has begun at exit.
Journal::Impl&
Journal::impl() const
{
    static Impl* instance = new Impl;
    return *instance;
}

Journal&
Journal::Global()
{
    static Journal* instance = new Journal;
    return *instance;
}

void
Journal::Emit(const char* type,
              std::initializer_list<std::pair<const char*, JournalValue>>
                  fields)
{
    JournalRecord record;
    record.type = type;
    record.tid = CurrentTraceTid();
    // Stamp the emitting thread's trace context here, centrally, so
    // every emit site — service, scheduler, executor chunks on pool
    // workers, fault injections — correlates to its request without
    // each site knowing traces exist. No context, no fields: events
    // emitted outside any request look exactly as they always did.
    const TraceContext context = CurrentTraceContext();
    record.fields.reserve(fields.size() + (context.valid() ? 2 : 0));
    for (const auto& [key, value] : fields) {
        record.fields.emplace_back(key, value);
    }
    if (context.valid()) {
        record.fields.emplace_back("trace", context.trace_id());
        record.fields.emplace_back("span", context.span_id());
    }
    const uint32_t shard_index = record.tid % kNumShards;
    record.shard = shard_index;
    Shard& shard = impl().shards[shard_index];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.events.size() >= shard.capacity) {
        ++shard.dropped;
        return;
    }
    // Timestamp under the shard lock: per-shard timestamps are then
    // monotonic, so a stable global sort by ts_us preserves shard order.
    record.ts_us = TraceNowUs();
    record.seq = shard.next_seq++;
    shard.events.push_back(std::move(record));
}

std::vector<JournalRecord>
Journal::Snapshot() const
{
    std::vector<JournalRecord> merged;
    for (const Shard& shard : impl().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        merged.insert(merged.end(), shard.events.begin(),
                      shard.events.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const JournalRecord& a, const JournalRecord& b) {
                         return a.ts_us < b.ts_us;
                     });
    return merged;
}

uint64_t
Journal::dropped() const
{
    uint64_t total = 0;
    for (const Shard& shard : impl().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.dropped;
    }
    return total;
}

uint64_t
Journal::size() const
{
    uint64_t total = 0;
    for (const Shard& shard : impl().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.events.size();
    }
    return total;
}

size_t
Journal::shard_capacity() const
{
    std::lock_guard<std::mutex> lock(impl().shards[0].mu);
    return impl().shards[0].capacity;
}

void
Journal::SetShardCapacity(size_t capacity)
{
    for (Shard& shard : impl().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.capacity = capacity;
        if (shard.events.size() > capacity) {
            shard.events.resize(capacity);
        }
    }
}

void
Journal::Clear()
{
    for (Shard& shard : impl().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.events.clear();
        shard.dropped = 0;
        shard.next_seq = 1;
    }
}

std::string
Journal::ToJsonl() const
{
    const std::vector<JournalRecord> events = Snapshot();
    std::ostringstream out;
    {
        JsonWriter w;
        w.BeginObject();
        w.Key("schema").String("xtalk.journal.v1");
        w.Key("run").String(RunId());
        w.Key("events").Number(static_cast<uint64_t>(events.size()));
        w.Key("dropped").Number(dropped());
        w.Key("shards").Number(static_cast<uint64_t>(kNumShards));
        w.EndObject();
        out << w.str() << "\n";
    }
    for (const JournalRecord& e : events) {
        JsonWriter w;
        w.BeginObject();
        w.Key("ts_us").Number(e.ts_us);
        w.Key("shard").Number(static_cast<uint64_t>(e.shard));
        w.Key("seq").Number(e.seq);
        w.Key("tid").Number(static_cast<uint64_t>(e.tid));
        w.Key("type").String(e.type);
        w.Key("fields").BeginObject();
        for (const auto& [key, value] : e.fields) {
            w.Key(key);
            switch (value.kind()) {
              case JournalValue::Kind::kString:
                w.String(value.str());
                break;
              case JournalValue::Kind::kUint:
                w.Number(value.as_uint());
                break;
              case JournalValue::Kind::kInt:
                w.Number(value.as_int());
                break;
              case JournalValue::Kind::kDouble:
                w.Number(value.as_double());  // Non-finite: null.
                break;
              case JournalValue::Kind::kBool:
                w.Bool(value.as_bool());
                break;
            }
        }
        w.EndObject();
        w.EndObject();
        out << w.str() << "\n";
    }
    return out.str();
}

bool
Journal::WriteJsonl(const std::string& path, std::string* error) const
{
    return WriteTextFile(path, ToJsonl(), error);
}

namespace {

std::mutex g_run_id_mu;
std::string g_run_id;

std::mutex g_crash_mu;
std::string g_crash_path;
std::terminate_handler g_previous_terminate = nullptr;
bool g_terminate_installed = false;

[[noreturn]] void
CrashDumpTerminate()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(g_crash_mu);
        path = g_crash_path;
    }
    if (!path.empty()) {
        // Best effort: the process is dying; never throw from here.
        try {
            Journal::Global().WriteJsonl(path);
        } catch (...) {
        }
    }
    if (g_previous_terminate) {
        g_previous_terminate();
    }
    std::abort();
}

}  // namespace

std::string
RunId()
{
    std::lock_guard<std::mutex> lock(g_run_id_mu);
    if (g_run_id.empty()) {
        // Wall clock + steady clock mix: unique enough to tell runs of
        // the longitudinal workflow apart; no determinism requirement.
        const uint64_t wall = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        const uint64_t mono = static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        uint64_t h = wall * 1099511628211ull ^ mono;
        std::ostringstream oss;
        oss << std::hex << h;
        g_run_id = oss.str();
    }
    return g_run_id;
}

void
SetRunId(const std::string& run_id)
{
    std::lock_guard<std::mutex> lock(g_run_id_mu);
    g_run_id = run_id;
}

void
ArmCrashDump(const std::string& path)
{
    std::lock_guard<std::mutex> lock(g_crash_mu);
    g_crash_path = path;
    if (!path.empty() && !g_terminate_installed) {
        g_previous_terminate = std::set_terminate(CrashDumpTerminate);
        g_terminate_installed = true;
    }
}

}  // namespace xtalk::telemetry
