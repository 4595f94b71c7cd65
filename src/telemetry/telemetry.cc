#include "telemetry/telemetry.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "telemetry/json.h"

namespace xtalk::telemetry {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

/** Read XTALK_TELEMETRY once at process start. */
struct EnvInit {
    EnvInit()
    {
        if (const char* env = std::getenv("XTALK_TELEMETRY")) {
            internal::g_enabled.store(std::string(env) != "0");
        }
    }
};
const EnvInit g_env_init;

/** CAS-loop update for atomic min/max of doubles. */
void
AtomicMin(std::atomic<double>* target, double value)
{
    double cur = target->load(std::memory_order_relaxed);
    while (value < cur &&
           !target->compare_exchange_weak(cur, value,
                                          std::memory_order_relaxed)) {
    }
}

void
AtomicMax(std::atomic<double>* target, double value)
{
    double cur = target->load(std::memory_order_relaxed);
    while (value > cur &&
           !target->compare_exchange_weak(cur, value,
                                          std::memory_order_relaxed)) {
    }
}

}  // namespace

void
SetEnabled(bool enabled)
{
    internal::g_enabled.store(enabled);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
    if (bounds_.empty()) {
        throw std::invalid_argument("histogram needs at least one bound");
    }
    for (size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1]) {
            throw std::invalid_argument(
                "histogram bounds must be strictly ascending");
        }
    }
}

void
Histogram::Record(double value)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const size_t bucket = static_cast<size_t>(it - bounds_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    AtomicMin(&min_, value);
    AtomicMax(&max_, value);
}

double
Histogram::Mean() const
{
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double
Histogram::RecordedMin() const
{
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double
Histogram::RecordedMax() const
{
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::vector<uint64_t>
Histogram::BucketCounts() const
{
    std::vector<uint64_t> out(buckets_.size());
    for (size_t i = 0; i < buckets_.size(); ++i) {
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
}

double
Histogram::Percentile(double p) const
{
    const std::vector<uint64_t> counts = BucketCounts();
    uint64_t total = 0;
    for (const uint64_t c : counts) {
        total += c;
    }
    if (total == 0) {
        return 0.0;
    }
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(total);
    uint64_t running = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        running += counts[i];
        if (static_cast<double>(running) >= rank && counts[i] > 0) {
            // Interpolate within [lo, hi] of the winning bucket. The
            // overflow bucket has no upper bound; report the recorded
            // max. The first bucket interpolates from the recorded min.
            if (i == counts.size() - 1) {
                return RecordedMax();
            }
            const double lo = i == 0 ? std::min(RecordedMin(), bounds_[0])
                                     : bounds_[i - 1];
            const double hi = bounds_[i];
            const double before =
                static_cast<double>(running - counts[i]);
            const double frac =
                (rank - before) / static_cast<double>(counts[i]);
            return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
        }
    }
    return RecordedMax();
}

double
Histogram::Quantile(double q) const
{
    return Percentile(std::clamp(q, 0.0, 1.0) * 100.0);
}

void
Histogram::Reset()
{
    for (auto& b : buckets_) {
        b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

struct Registry::Impl {
    mutable std::mutex mu;
    // unique_ptr keeps addresses stable across rehash/rebalance.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, std::string> labels;
};

// The singletons below are leaked on purpose, like the other statics a
// shared-pool worker can reach: the pool outlives static destruction at
// exit, and a worker finishing a run then still adds to a counter.
Registry::Impl&
Registry::impl() const
{
    static Impl* instance = new Impl;
    return *instance;
}

Registry&
Registry::Global()
{
    static Registry* instance = new Registry;
    return *instance;
}

Counter&
Registry::counter(const std::string& name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto& slot = im.counters[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
    }
    return *slot;
}

Gauge&
Registry::gauge(const std::string& name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto& slot = im.gauges[name];
    if (!slot) {
        slot = std::make_unique<Gauge>();
    }
    return *slot;
}

Histogram&
Registry::histogram(const std::string& name,
                    const std::vector<double>& upper_bounds)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto& slot = im.histograms[name];
    if (!slot) {
        slot = std::make_unique<Histogram>(
            upper_bounds.empty() ? DefaultTimeBucketsMs() : upper_bounds);
    }
    return *slot;
}

void
Registry::SetLabel(const std::string& key, const std::string& value)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.labels[key] = value;
}

std::string
Registry::ToJson() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    JsonWriter w;
    w.BeginObject();
    w.Key("counters").BeginObject();
    for (const auto& [name, c] : im.counters) {
        w.Key(name).Number(c->value());
    }
    w.EndObject();
    w.Key("gauges").BeginObject();
    for (const auto& [name, g] : im.gauges) {
        w.Key(name).Number(g->value());
    }
    w.EndObject();
    w.Key("histograms").BeginObject();
    for (const auto& [name, h] : im.histograms) {
        w.Key(name).BeginObject();
        w.Key("count").Number(h->count());
        w.Key("sum").Number(h->sum());
        w.Key("mean").Number(h->Mean());
        w.Key("min").Number(h->RecordedMin());
        w.Key("max").Number(h->RecordedMax());
        w.Key("p50").Number(h->Percentile(50));
        w.Key("p90").Number(h->Percentile(90));
        w.Key("p95").Number(h->Percentile(95));
        w.Key("p99").Number(h->Percentile(99));
        w.Key("bounds").BeginArray();
        for (const double b : h->bounds()) {
            w.Number(b);
        }
        w.EndArray();
        w.Key("buckets").BeginArray();
        for (const uint64_t c : h->BucketCounts()) {
            w.Number(c);
        }
        w.EndArray();
        w.EndObject();
    }
    w.EndObject();
    w.Key("labels").BeginObject();
    for (const auto& [key, value] : im.labels) {
        w.Key(key).String(value);
    }
    w.EndObject();
    w.EndObject();
    return w.str();
}

std::vector<std::pair<std::string, uint64_t>>
Registry::CounterSamples() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(im.counters.size());
    for (const auto& [name, c] : im.counters) {
        out.emplace_back(name, c->value());
    }
    return out;
}

std::vector<std::pair<std::string, double>>
Registry::GaugeSamples() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(im.gauges.size());
    for (const auto& [name, g] : im.gauges) {
        out.emplace_back(name, g->value());
    }
    return out;
}

std::vector<std::pair<std::string, const Histogram*>>
Registry::HistogramSamples() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    std::vector<std::pair<std::string, const Histogram*>> out;
    out.reserve(im.histograms.size());
    for (const auto& [name, h] : im.histograms) {
        out.emplace_back(name, h.get());
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
Registry::LabelSamples() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    return {im.labels.begin(), im.labels.end()};
}

void
Registry::Reset()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    for (auto& [name, c] : im.counters) {
        c->Reset();
    }
    for (auto& [name, g] : im.gauges) {
        g->Reset();
    }
    for (auto& [name, h] : im.histograms) {
        h->Reset();
    }
    im.labels.clear();
}

Counter&
GetCounter(const std::string& name)
{
    return Registry::Global().counter(name);
}

Gauge&
GetGauge(const std::string& name)
{
    return Registry::Global().gauge(name);
}

Histogram&
GetHistogram(const std::string& name,
             const std::vector<double>& upper_bounds)
{
    return Registry::Global().histogram(name, upper_bounds);
}

void
SetLabel(const std::string& key, const std::string& value)
{
    Registry::Global().SetLabel(key, value);
}

const std::vector<double>&
DefaultTimeBucketsMs()
{
    static const std::vector<double> buckets{
        0.001, 0.003, 0.01, 0.03, 0.1,  0.3,  1.0,     3.0,
        10.0,  30.0,  100.0, 300.0, 1e3, 3e3, 10e3, 30e3, 120e3};
    return buckets;
}

std::string
StatsJson()
{
    const std::string body = Registry::Global().ToJson();
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("xtalk.stats.v1");
    w.Key("enabled").Bool(Enabled());
    w.EndObject();
    // Splice the registry members into the envelope object.
    std::string head = w.str();
    head.pop_back();  // trailing '}'
    return head + "," + body.substr(1);
}

bool
WriteTextFile(const std::string& path, const std::string& text,
              std::string* error)
{
    std::ofstream out(path);
    if (!out.good()) {
        if (error) {
            *error = "cannot open " + path + " for writing";
        }
        return false;
    }
    out << text;
    out.flush();
    if (!out.good()) {
        if (error) {
            *error = "write to " + path + " failed";
        }
        return false;
    }
    return true;
}

bool
WriteStatsJson(const std::string& path, std::string* error)
{
    return WriteTextFile(path, StatsJson() + "\n", error);
}

}  // namespace xtalk::telemetry
