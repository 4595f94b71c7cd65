/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket histograms with lock-free recording and JSON snapshots.
 *
 * Design goals, in order:
 *  1. Hot-path cost. Recording is a relaxed atomic op. Sites look
 *     metrics up by name where they record: a name the process has
 *     looked up before is found in a shared index with no lock and no
 *     allocation (a hash of the name and a short probe), on any thread,
 *     and only the process's first lookup of a name takes the
 *     registry's mutex. SetLabel takes the mutex and writes only when
 *     the value changes. The whole subsystem is gated on Enabled() — a
 *     single relaxed atomic load — so a disabled build pays one
 *     predictable branch per site.
 *  2. Stable addresses. Metric objects are never destroyed once
 *     created; Registry::Reset() zeroes values but keeps the objects,
 *     so the index's pointers and any reference a site keeps itself
 *     stay valid across resets.
 *  3. Machine-readable output. StatsJson() serializes every metric;
 *     see docs/OBSERVABILITY.md for the schema and naming conventions
 *     (`<area>.<noun>[.<unit>]`, e.g. `charz.srb.shots`,
 *     `span.compile.layout.ms`).
 *
 * Enablement: SetEnabled(true) programmatically, or environment
 * variable XTALK_TELEMETRY=1 (read once at process start). Tracing
 * (see trace.h) is gated separately.
 */
#ifndef XTALK_TELEMETRY_TELEMETRY_H
#define XTALK_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xtalk::telemetry {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/** True when telemetry recording is on (relaxed load; hot-path safe). */
inline bool
Enabled()
{
    return internal::g_enabled.load(std::memory_order_relaxed);
}

/** Turn metric recording on or off at runtime. */
void SetEnabled(bool enabled);

/** Monotonically increasing event count. */
class Counter {
  public:
    void
    Add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    Reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge {
  public:
    void
    Set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /**
     * Raise the gauge to @p v if it is below (CAS max). Turns a gauge
     * into a high-watermark: concurrent publishers keep the peak
     * instead of whoever wrote last. Used by the runtime pool gauges
     * (`runtime.pool.*`); reset between runs via Registry::Reset().
     */
    void
    UpdateMax(double v)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (v > cur &&
               !value_.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    Reset()
    {
        value_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts values <= bounds[i] (and
 * greater than bounds[i-1]); one implicit overflow bucket catches the
 * rest. Recording is wait-free (relaxed atomics per bucket plus
 * CAS loops for min/max). Percentiles are estimated by linear
 * interpolation within the winning bucket.
 */
class Histogram {
  public:
    /** @p upper_bounds must be non-empty and strictly ascending. */
    explicit Histogram(std::vector<double> upper_bounds);

    void Record(double value);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double Mean() const;
    /** Smallest / largest recorded value (0 when empty). */
    double RecordedMin() const;
    double RecordedMax() const;
    const std::vector<double>& bounds() const { return bounds_; }
    /** Bucket occupancy, bounds().size() + 1 entries (last = overflow). */
    std::vector<uint64_t> BucketCounts() const;
    /** Interpolated percentile estimate, @p p in [0, 100]. */
    double Percentile(double p) const;
    /** Interpolated quantile estimate, @p q in [0, 1]. Quantile(0.95)
     *  == Percentile(95); the OpenMetrics-friendly spelling. */
    double Quantile(double q) const;

    void Reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_;
    std::atomic<double> max_;
};

/**
 * The process-wide metric registry. A name maps to one object for the
 * life of the process. Lookup of a name the process has looked up
 * before is lock-free and allocation-free (see the file comment);
 * recording on the returned objects is lock-free.
 */
class Registry {
  public:
    static Registry& Global();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    /**
     * Find-or-create a histogram. @p upper_bounds applies on creation
     * only (empty = DefaultTimeBucketsMs()); later callers get the
     * existing instance regardless of the bounds they pass.
     */
    Histogram& histogram(std::string_view name,
                         const std::vector<double>& upper_bounds = {});

    /**
     * Free-form string label, e.g. backend or device tags. Takes the
     * mutex; setting the value a label already holds writes nothing.
     */
    void SetLabel(std::string_view key, std::string_view value);

    /**
     * Serialize every metric:
     * {"counters":{...},"gauges":{...},"histograms":{name:
     *  {"count","sum","mean","min","max","p50","p90","p95","p99",
     *   "bounds":[...],"buckets":[...]}},"labels":{...}}
     */
    std::string ToJson() const;

    /**
     * Point-in-time copies of every metric, for exporters (see
     * openmetrics.h). Histogram entries are stable pointers — metric
     * objects are never destroyed — so reading them after the snapshot
     * is safe, though values may advance between calls.
     */
    std::vector<std::pair<std::string, uint64_t>> CounterSamples() const;
    std::vector<std::pair<std::string, double>> GaugeSamples() const;
    std::vector<std::pair<std::string, const Histogram*>>
    HistogramSamples() const;
    std::vector<std::pair<std::string, std::string>> LabelSamples() const;

    /** Zero all values and drop labels; metric objects survive. */
    void Reset();

  private:
    Registry() = default;
    struct Impl;
    Impl& impl() const;
};

/** Shorthands for Registry::Global(). */
Counter& GetCounter(std::string_view name);
Gauge& GetGauge(std::string_view name);
Histogram& GetHistogram(std::string_view name,
                        const std::vector<double>& upper_bounds = {});
void SetLabel(std::string_view key, std::string_view value);

namespace internal {
/** The histogram `span.<span_name>.ms` (ScopedSpan), looked up by span
 *  name, so its name is built once per process. */
Histogram& SpanHistogram(std::string_view span_name);
}  // namespace internal

/**
 * Default duration buckets in milliseconds: 1us to ~2min in roughly
 * 3x steps. Suits everything from a single gate application to a full
 * characterization run; a histogram whose samples cluster elsewhere
 * passes explicit bounds.
 */
const std::vector<double>& DefaultTimeBucketsMs();

/**
 * Full machine-readable snapshot:
 * {"schema":"xtalk.stats.v1","enabled":...,<Registry::ToJson()
 * members>}. This is the payload behind `xtalkc --stats-json`.
 */
std::string StatsJson();

/**
 * Replace @p path's contents with @p text: the one file writer behind
 * every telemetry export. False on failure, with @p error (when
 * non-null) set to "cannot open <path> for writing" or "write to <path>
 * failed".
 */
bool WriteTextFile(const std::string& path, const std::string& text,
                   std::string* error = nullptr);

/** Write StatsJson() to @p path. False (with @p error set) on I/O failure. */
bool WriteStatsJson(const std::string& path, std::string* error = nullptr);

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_TELEMETRY_H
