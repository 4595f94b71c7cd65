#include "telemetry/trace.h"

#include <cstdlib>
#include <map>
#include <mutex>

#include "telemetry/json.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_context.h"

namespace xtalk::telemetry {

namespace internal {
std::atomic<bool> g_tracing{false};
}  // namespace internal

namespace {

struct EnvInit {
    EnvInit()
    {
        if (const char* env = std::getenv("XTALK_TRACE")) {
            if (std::string(env) != "0") {
                internal::g_tracing.store(true);
                // Tracing without metrics makes no sense: spans check
                // Enabled() first.
                SetEnabled(true);
            }
        }
    }
};
const EnvInit g_env_init;

std::chrono::steady_clock::time_point
TraceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

thread_local uint32_t t_depth = 0;

/** tid -> human name, fed by SetCurrentThreadName. */
struct ThreadNameRegistry {
    std::mutex mu;
    std::map<uint32_t, std::string> names;
};

ThreadNameRegistry&
NameRegistry()
{
    // Leaked on purpose: the shared pool outlives this static at exit,
    // and a worker that first runs during the pool's shutdown registers
    // its name after static destruction has begun.
    static ThreadNameRegistry* registry = new ThreadNameRegistry;
    return *registry;
}

}  // namespace

void
SetTracingEnabled(bool enabled)
{
    internal::g_tracing.store(enabled);
}

struct TraceBuffer::Impl {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    size_t capacity = 1 << 16;
    uint64_t dropped = 0;
};

// Leaked on purpose, like NameRegistry(): a pool worker may close a
// span after static destruction has begun.
TraceBuffer::Impl&
TraceBuffer::impl() const
{
    static Impl* instance = new Impl;
    return *instance;
}

TraceBuffer&
TraceBuffer::Global()
{
    static TraceBuffer* instance = new TraceBuffer;
    return *instance;
}

void
TraceBuffer::Append(TraceEvent event)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.events.size() >= im.capacity) {
        ++im.dropped;
        return;
    }
    im.events.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceBuffer::Snapshot() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    return im.events;
}

uint64_t
TraceBuffer::dropped() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    return im.dropped;
}

size_t
TraceBuffer::capacity() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    return im.capacity;
}

void
TraceBuffer::SetCapacity(size_t capacity)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.capacity = capacity;
    if (im.events.size() > capacity) {
        im.events.resize(capacity);
    }
}

void
TraceBuffer::Clear()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.events.clear();
    im.dropped = 0;
}

uint32_t
CurrentTraceTid()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t tid = next.fetch_add(1);
    return tid;
}

double
TraceNowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - TraceEpoch())
        .count();
}

void
SetCurrentThreadName(const std::string& name)
{
    ThreadNameRegistry& registry = NameRegistry();
    const uint32_t tid = CurrentTraceTid();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.names[tid] = name;
}

std::vector<std::pair<uint32_t, std::string>>
ThreadNames()
{
    ThreadNameRegistry& registry = NameRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    return {registry.names.begin(), registry.names.end()};
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name), category_(category), active_(Enabled())
{
    if (!active_) {
        return;
    }
    depth_ = t_depth++;
    if (ProfilingEnabled()) {
        profiled_ = true;
        internal::ProfilerEnter(name_);
    }
    // Pin the epoch before the first start timestamp so ts_us >= 0.
    TraceEpoch();
    start_ = std::chrono::steady_clock::now();
    start_us_ = std::chrono::duration<double, std::micro>(start_ -
                                                          TraceEpoch())
                    .count();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_) {
        return;
    }
    const auto end = std::chrono::steady_clock::now();
    --t_depth;
    const double dur_ms =
        std::chrono::duration<double, std::milli>(end - start_).count();
    if (profiled_) {
        internal::ProfilerExit(dur_ms * 1000.0);
    }
    internal::SpanHistogram(name_).Record(dur_ms);
    if (TracingEnabled()) {
        TraceEvent event;
        event.name = name_;
        event.category = category_;
        event.trace = CurrentTraceContext().trace_id();
        event.ts_us = start_us_;
        event.dur_us = dur_ms * 1000.0;
        event.tid = CurrentTraceTid();
        event.depth = depth_;
        TraceBuffer::Global().Append(std::move(event));
    }
}

std::string
TraceJson()
{
    const std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
    JsonWriter w;
    w.BeginObject();
    w.Key("displayTimeUnit").String("ms");
    w.Key("traceEvents").BeginArray();
    // Metadata ("ph":"M") first: the process name plus one thread_name
    // record per registered thread, so Perfetto labels the lanes
    // ("main", "pool-worker-3") instead of showing bare tids.
    w.BeginObject();
    w.Key("name").String("process_name");
    w.Key("ph").String("M");
    w.Key("pid").Number(uint64_t{1});
    w.Key("args").BeginObject();
    w.Key("name").String("xtalk");
    w.EndObject();
    w.EndObject();
    for (const auto& [tid, name] : ThreadNames()) {
        w.BeginObject();
        w.Key("name").String("thread_name");
        w.Key("ph").String("M");
        w.Key("pid").Number(uint64_t{1});
        w.Key("tid").Number(static_cast<uint64_t>(tid));
        w.Key("args").BeginObject();
        w.Key("name").String(name);
        w.EndObject();
        w.EndObject();
    }
    // One async lane per request trace ("ph":"b"/"e" pairs keyed by
    // the trace id): Perfetto renders each request as its own track
    // spanning first span start to last span end, so concurrent
    // compiles through the daemon separate visually instead of
    // interleaving anonymously on the worker lanes.
    struct Extent {
        double begin_us;
        double end_us;
    };
    std::map<std::string, Extent> requests;
    for (const TraceEvent& e : events) {
        if (e.trace.empty()) {
            continue;
        }
        auto [it, inserted] = requests.try_emplace(
            e.trace, Extent{e.ts_us, e.ts_us + e.dur_us});
        if (!inserted) {
            it->second.begin_us = std::min(it->second.begin_us, e.ts_us);
            it->second.end_us =
                std::max(it->second.end_us, e.ts_us + e.dur_us);
        }
    }
    for (const auto& [trace, extent] : requests) {
        const std::string label = "request " + trace.substr(0, 8);
        for (const bool begin : {true, false}) {
            w.BeginObject();
            w.Key("name").String(label);
            w.Key("cat").String("request");
            w.Key("ph").String(begin ? "b" : "e");
            w.Key("id").String(trace);
            w.Key("pid").Number(uint64_t{1});
            w.Key("tid").Number(uint64_t{0});
            w.Key("ts").Number(begin ? extent.begin_us : extent.end_us);
            w.Key("args").BeginObject();
            w.Key("trace").String(trace);
            w.EndObject();
            w.EndObject();
        }
    }
    for (const TraceEvent& e : events) {
        w.BeginObject();
        w.Key("name").String(e.name);
        w.Key("cat").String(e.category);
        w.Key("ph").String("X");
        w.Key("pid").Number(uint64_t{1});
        w.Key("tid").Number(static_cast<uint64_t>(e.tid));
        w.Key("ts").Number(e.ts_us);
        w.Key("dur").Number(e.dur_us);
        if (!e.trace.empty()) {
            w.Key("args").BeginObject();
            w.Key("trace").String(e.trace);
            w.EndObject();
        }
        w.EndObject();
    }
    w.EndArray();
    w.Key("otherData").BeginObject();
    w.Key("schema").String("xtalk.trace.v1");
    w.Key("dropped")
        .Number(static_cast<uint64_t>(TraceBuffer::Global().dropped()));
    w.EndObject();
    w.EndObject();
    return w.str();
}

bool
WriteTraceJson(const std::string& path, std::string* error)
{
    return WriteTextFile(path, TraceJson() + "\n", error);
}

}  // namespace xtalk::telemetry
