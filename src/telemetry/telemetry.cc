#include "telemetry/telemetry.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <functional>
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

namespace {

/** The registry's own name -> object table (name order, for output). */
template <typename T>
using MetricMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

/**
 * A name -> object index every thread reads without a lock: a fixed
 * array of chains that only grow. Entries are added under a mutex and
 * never changed or removed (metric objects are never destroyed), so a
 * reader that reaches an entry may follow it.
 */
template <typename T>
class NameIndex {
  public:
    /** The object added under @p name, whose hash is @p hash, or null. */
    T*
    Find(std::string_view name, size_t hash) const
    {
        for (const Entry* e =
                 chains_[hash % kChains].load(std::memory_order_acquire);
             e != nullptr; e = e->next) {
            if (e->hash == hash && e->name == name) {
                return e->object;
            }
        }
        return nullptr;
    }

    /** Add @p name -> @p object; the caller holds the index's mutex. */
    void
    Add(std::string_view name, size_t hash, T* object)
    {
        std::atomic<const Entry*>& chain = chains_[hash % kChains];
        chain.store(new Entry{std::string(name), hash, object,
                              chain.load(std::memory_order_relaxed)},
                    std::memory_order_release);
    }

  private:
    struct Entry {
        std::string name;
        size_t hash;
        T* object;
        const Entry* next;
    };

    // A process holds a few hundred names, so chains stay short.
    static constexpr size_t kChains = 256;
    std::array<std::atomic<const Entry*>, kChains> chains_{};
};

/**
 * @p name's object in @p index, found with no lock. The first lookup
 * of a name in the process takes @p mu and adds the object @p make
 * returns.
 */
template <typename T, typename Make>
T&
Lookup(std::mutex& mu, NameIndex<T>& index, std::string_view name,
       Make make)
{
    const size_t hash = std::hash<std::string_view>{}(name);
    if (T* found = index.Find(name, hash)) {
        return *found;
    }
    std::lock_guard<std::mutex> lock(mu);
    if (T* found = index.Find(name, hash)) {
        return *found;
    }
    T& object = make();
    index.Add(name, hash, &object);
    return object;
}

/** Add a new @p name to @p registered; the caller holds its mutex. */
template <typename T, typename... Args>
T&
Register(MetricMap<T>& registered, std::string_view name, Args&&... args)
{
    return *registered
                .emplace(std::string(name),
                         std::make_unique<T>(std::forward<Args>(args)...))
                .first->second;
}

}  // namespace

struct Registry::Impl {
    mutable std::mutex mu;
    // unique_ptr keeps addresses stable across rehash/rebalance.
    MetricMap<Counter> counters;
    MetricMap<Gauge> gauges;
    MetricMap<Histogram> histograms;
    std::map<std::string, std::string, std::less<>> labels;
    // Every name in the maps above, for lookups that take no lock.
    NameIndex<Counter> counter_index;
    NameIndex<Gauge> gauge_index;
    NameIndex<Histogram> histogram_index;
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
Registry::counter(std::string_view name)
{
    Impl& im = impl();
    return Lookup(im.mu, im.counter_index, name,
                  [&]() -> Counter& { return Register(im.counters, name); });
}

Gauge&
Registry::gauge(std::string_view name)
{
    Impl& im = impl();
    return Lookup(im.mu, im.gauge_index, name,
                  [&]() -> Gauge& { return Register(im.gauges, name); });
}

Histogram&
Registry::histogram(std::string_view name,
                    const std::vector<double>& upper_bounds)
{
    Impl& im = impl();
    return Lookup(im.mu, im.histogram_index, name, [&]() -> Histogram& {
        return Register(im.histograms, name,
                        upper_bounds.empty() ? DefaultTimeBucketsMs()
                                             : upper_bounds);
    });
}

void
Registry::SetLabel(std::string_view key, std::string_view value)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    const auto it = im.labels.find(key);
    if (it == im.labels.end()) {
        im.labels.emplace(key, value);
    } else if (it->second != value) {
        it->second.assign(value);
    }
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
GetCounter(std::string_view name)
{
    return Registry::Global().counter(name);
}

Gauge&
GetGauge(std::string_view name)
{
    return Registry::Global().gauge(name);
}

Histogram&
GetHistogram(std::string_view name, const std::vector<double>& upper_bounds)
{
    return Registry::Global().histogram(name, upper_bounds);
}

void
SetLabel(std::string_view key, std::string_view value)
{
    Registry::Global().SetLabel(key, value);
}

namespace internal {

Histogram&
SpanHistogram(std::string_view span_name)
{
    // Span name -> its histogram, leaked like the registry. Its own
    // mutex, as a first lookup goes on to take the registry's.
    static auto* mu = new std::mutex;
    static auto* spans = new NameIndex<Histogram>;
    return Lookup(*mu, *spans, span_name, [&]() -> Histogram& {
        std::string name = "span.";
        name.append(span_name).append(".ms");
        return GetHistogram(name);
    });
}

}  // namespace internal

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
