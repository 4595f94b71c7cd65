#include "service/stats.h"

#include <string>
#include <utility>
#include <vector>

#include "service/admission.h"
#include "service/snapshot_cache.h"
#include "telemetry/journal.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk::service {

namespace {

/** Counter value by exact name (0 when never created). */
uint64_t
CounterValue(
    const std::vector<std::pair<std::string, uint64_t>>& counters,
    const std::string& name)
{
    for (const auto& [key, value] : counters) {
        if (key == name) {
            return value;
        }
    }
    return 0;
}

bool
HasPrefix(const std::string& text, const std::string& prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

/** Write {"count","mean","p50","p90","p95","p99"} for one histogram. */
void
WriteLatencySummary(telemetry::JsonWriter& w,
                    const telemetry::Histogram& histogram)
{
    w.BeginObject();
    w.Key("count").Number(histogram.count());
    w.Key("mean").Number(histogram.Mean());
    w.Key("p50").Number(histogram.Percentile(50));
    w.Key("p90").Number(histogram.Percentile(90));
    w.Key("p95").Number(histogram.Percentile(95));
    w.Key("p99").Number(histogram.Percentile(99));
    w.EndObject();
}

}  // namespace

std::string
BuildServiceStatsJson(const SnapshotCache& cache, const AdmissionGate& gate)
{
    const auto counters =
        telemetry::Registry::Global().CounterSamples();
    const auto histograms =
        telemetry::Registry::Global().HistogramSamples();

    telemetry::JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("xtalk.svcstats.v1");

    // Requests: totals, status mix, end-to-end latency distribution.
    w.Key("requests").BeginObject();
    w.Key("total").Number(CounterValue(counters, "svc.requests"));
    w.Key("by_status").BeginObject();
    const std::string status_prefix = "svc.status.";
    for (const auto& [key, value] : counters) {
        if (HasPrefix(key, status_prefix)) {
            w.Key(key.substr(status_prefix.size())).Number(value);
        }
    }
    w.EndObject();
    for (const auto& [key, histogram] : histograms) {
        if (key == "svc.request_ms") {
            w.Key("latency_ms");
            WriteLatencySummary(w, *histogram);
        }
    }
    w.EndObject();

    // Phase latency percentiles (budget attribution, aggregated).
    w.Key("phases").BeginObject();
    const std::string phase_prefix = "svc.phase.";
    const std::string phase_suffix = ".ms";
    for (const auto& [key, histogram] : histograms) {
        if (!HasPrefix(key, phase_prefix) ||
            key.size() <= phase_prefix.size() + phase_suffix.size() ||
            key.compare(key.size() - phase_suffix.size(),
                        phase_suffix.size(), phase_suffix) != 0) {
            continue;
        }
        w.Key(key.substr(phase_prefix.size(),
                         key.size() - phase_prefix.size() -
                             phase_suffix.size()));
        WriteLatencySummary(w, *histogram);
    }
    w.EndObject();

    w.Key("admission").BeginObject();
    w.Key("running").Number(static_cast<int64_t>(gate.running()));
    w.Key("waiting").Number(static_cast<int64_t>(gate.waiting()));
    w.Key("admitted").Number(gate.admitted());
    w.Key("rejected").Number(gate.rejected());
    w.Key("timed_out").Number(gate.timed_out());
    w.EndObject();

    const uint64_t hits = cache.hits();
    const uint64_t misses = cache.misses();
    w.Key("cache").BeginObject();
    w.Key("hits").Number(hits);
    w.Key("misses").Number(misses);
    w.Key("evictions").Number(cache.evictions());
    w.Key("size").Number(static_cast<uint64_t>(cache.size()));
    w.Key("hit_rate")
        .Number(hits + misses == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(hits + misses));
    w.EndObject();

    w.Key("portfolio").BeginObject();
    w.Key("races")
        .Number(CounterValue(counters, "sched.portfolio.races"));
    w.Key("fallbacks")
        .Number(CounterValue(counters, "sched.xtalk.fallbacks"));
    w.Key("wins").BeginObject();
    const std::string wins_prefix = "sched.portfolio.wins.";
    for (const auto& [key, value] : counters) {
        if (HasPrefix(key, wins_prefix)) {
            w.Key(key.substr(wins_prefix.size())).Number(value);
        }
    }
    w.EndObject();
    w.EndObject();

    // Observability health: how much of the story got dropped.
    w.Key("journal").BeginObject();
    w.Key("events").Number(telemetry::Journal::Global().size());
    w.Key("dropped").Number(telemetry::Journal::Global().dropped());
    w.EndObject();
    w.Key("trace_buffer").BeginObject();
    w.Key("events")
        .Number(static_cast<uint64_t>(
            telemetry::TraceBuffer::Global().Snapshot().size()));
    w.Key("dropped").Number(telemetry::TraceBuffer::Global().dropped());
    w.EndObject();

    w.EndObject();
    return w.str();
}

}  // namespace xtalk::service
