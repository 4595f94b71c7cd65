/**
 * @file
 * Tests for the telemetry subsystem: counters/gauges/histograms in the
 * global registry (including under thread contention), scoped spans and
 * the trace buffer, JSON writer/validator, and the disabled-mode
 * zero-recording guarantee.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/ledger.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk::telemetry {
namespace {

/** Every test starts from a clean, enabled registry and empty buffer. */
class TelemetryTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        SetEnabled(true);
        SetTracingEnabled(false);
        Registry::Global().Reset();
        TraceBuffer::Global().Clear();
    }

    void
    TearDown() override
    {
        SetEnabled(false);
        SetTracingEnabled(false);
        Registry::Global().Reset();
        TraceBuffer::Global().Clear();
    }
};

TEST_F(TelemetryTest, CounterCountsAndResets)
{
    Counter& c = GetCounter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.Add();
    c.Add(41);
    EXPECT_EQ(c.value(), 42u);
    Registry::Global().Reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, RegistryReturnsSameObjectForSameName)
{
    Counter& a = GetCounter("test.same");
    Counter& b = GetCounter("test.same");
    EXPECT_EQ(&a, &b);
    // Reset zeroes but never destroys: cached references stay valid.
    Registry::Global().Reset();
    a.Add(3);
    EXPECT_EQ(GetCounter("test.same").value(), 3u);
}

TEST_F(TelemetryTest, ConcurrentCounterIncrementsAreLossless)
{
    Counter& c = GetCounter("test.concurrent");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i) {
                c.Add();
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
}

TEST_F(TelemetryTest, GaugeIsLastWriteWins)
{
    Gauge& g = GetGauge("test.gauge");
    g.Set(1.5);
    g.Set(-2.25);
    EXPECT_DOUBLE_EQ(g.value(), -2.25);
    Registry::Global().Reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, HistogramBucketBoundariesAreInclusiveUpper)
{
    Histogram& h = GetHistogram("test.hist", {1.0, 10.0, 100.0});
    // Bucket i counts values <= bounds[i]; one overflow bucket after.
    h.Record(0.5);    // bucket 0
    h.Record(1.0);    // bucket 0 (inclusive upper bound)
    h.Record(1.0001); // bucket 1
    h.Record(10.0);   // bucket 1
    h.Record(99.0);   // bucket 2
    h.Record(1e6);    // overflow
    const std::vector<uint64_t> buckets = h.BucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 2u);
    EXPECT_EQ(buckets[2], 1u);
    EXPECT_EQ(buckets[3], 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.RecordedMin(), 0.5);
    EXPECT_DOUBLE_EQ(h.RecordedMax(), 1e6);
    EXPECT_NEAR(h.Mean(), (0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 1e6) / 6.0,
                1e-6);
}

TEST_F(TelemetryTest, HistogramPercentilesInterpolate)
{
    Histogram& h = GetHistogram("test.pctl", {10.0, 20.0, 30.0});
    for (int i = 1; i <= 100; ++i) {
        h.Record(static_cast<double>(i % 30) + 0.5);
    }
    // All mass is below 30: p100 within the third bucket, p0 in the first.
    EXPECT_LE(h.Percentile(100.0), 30.0);
    EXPECT_LE(h.Percentile(0.0), 10.0);
    EXPECT_LE(h.Percentile(50.0), h.Percentile(90.0));
    EXPECT_LE(h.Percentile(90.0), h.Percentile(99.0));
}

TEST_F(TelemetryTest, HistogramConcurrentRecordKeepsTotalCount)
{
    Histogram& h = GetHistogram("test.hist.mt", {0.25, 0.5, 0.75});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i) {
                h.Record(static_cast<double>((i + t) % 100) / 100.0);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(h.count(), uint64_t{kThreads} * kPerThread);
    uint64_t bucket_total = 0;
    for (uint64_t b : h.BucketCounts()) {
        bucket_total += b;
    }
    EXPECT_EQ(bucket_total, h.count());
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing)
{
    SetEnabled(false);
    EXPECT_FALSE(Enabled());
    {
        ScopedSpan span("test.disabled");
        EXPECT_FALSE(span.active());
    }
    // The span histogram must not even exist in the snapshot.
    const std::string json = StatsJson();
    EXPECT_EQ(json.find("span.test.disabled.ms"), std::string::npos);
    EXPECT_TRUE(TraceBuffer::Global().Snapshot().empty());
}

TEST_F(TelemetryTest, ScopedSpanRecordsDurationHistogram)
{
    {
        ScopedSpan span("test.span");
        EXPECT_TRUE(span.active());
    }
    Histogram& h = GetHistogram("span.test.span.ms");
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.RecordedMax(), 0.0);
}

TEST_F(TelemetryTest, NestedSpansLandInTraceBufferWithDepth)
{
    SetTracingEnabled(true);
    {
        ScopedSpan outer("test.outer");
        {
            ScopedSpan inner("test.inner");
        }
    }
    const std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
    ASSERT_EQ(events.size(), 2u);
    // Inner closes first, so it is appended first.
    EXPECT_EQ(events[0].name, "test.inner");
    EXPECT_EQ(events[1].name, "test.outer");
    EXPECT_EQ(events[0].depth, 1u);
    EXPECT_EQ(events[1].depth, 0u);
    EXPECT_EQ(events[0].tid, events[1].tid);
    // Inner is contained in outer's interval.
    EXPECT_GE(events[0].ts_us, events[1].ts_us);
    EXPECT_LE(events[0].ts_us + events[0].dur_us,
              events[1].ts_us + events[1].dur_us + 1.0);
}

TEST_F(TelemetryTest, TraceBufferIsBoundedAndCountsDrops)
{
    SetTracingEnabled(true);
    TraceBuffer::Global().SetCapacity(4);
    for (int i = 0; i < 10; ++i) {
        ScopedSpan span("test.bounded");
    }
    EXPECT_EQ(TraceBuffer::Global().Snapshot().size(), 4u);
    EXPECT_EQ(TraceBuffer::Global().dropped(), 6u);
    TraceBuffer::Global().SetCapacity(1u << 16);
    TraceBuffer::Global().Clear();
    EXPECT_EQ(TraceBuffer::Global().dropped(), 0u);
}

TEST_F(TelemetryTest, StatsJsonIsValidAndCarriesMetrics)
{
    GetCounter("test.json.counter").Add(7);
    GetGauge("test.json.gauge").Set(2.5);
    GetHistogram("test.json.hist", {1.0, 2.0}).Record(1.5);
    SetLabel("test.label", "va\"lue");  // Exercise escaping.
    const std::string json = StatsJson();
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"xtalk.stats.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.counter\":7"), std::string::npos);
    EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
    EXPECT_NE(json.find("va\\\"lue"), std::string::npos);
}

TEST_F(TelemetryTest, TraceJsonIsValidChromeTraceShape)
{
    SetTracingEnabled(true);
    {
        ScopedSpan span("test.chrome", "unit-test");
    }
    const std::string json = TraceJson();
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"test.chrome\""), std::string::npos);
    EXPECT_NE(json.find("\"unit-test\""), std::string::npos);
}

TEST_F(TelemetryTest, WriteStatsJsonRoundTripsThroughDisk)
{
    GetCounter("test.disk").Add(1);
    const std::string path = ::testing::TempDir() + "/telemetry_stats.json";
    std::string error;
    ASSERT_TRUE(WriteStatsJson(path, &error)) << error;
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_TRUE(ValidateJson(buffer.str(), &error)) << error;
    EXPECT_NE(buffer.str().find("test.disk"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TelemetryTest, WriteStatsJsonReportsIoFailure)
{
    std::string error;
    EXPECT_FALSE(WriteStatsJson("/nonexistent-dir/x/y.json", &error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonWriter, HandlesNestingEscapingAndNonFinite)
{
    JsonWriter w;
    w.BeginObject()
        .Key("s")
        .String("a\"b\\c\n\t\x01")
        .Key("arr")
        .BeginArray()
        .Number(uint64_t{18446744073709551615ull})
        .Number(int64_t{-5})
        .Number(1.5)
        .Number(std::numeric_limits<double>::infinity())
        .Bool(true)
        .Null()
        .EndArray()
        .Key("empty")
        .BeginObject()
        .EndObject()
        .EndObject();
    const std::string json = w.str();
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
    // Non-finite doubles degrade to null rather than invalid tokens.
    EXPECT_NE(json.find("1.5,null,true,null"), std::string::npos) << json;
    EXPECT_NE(json.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

/** The next value of a seeded xorshift64 stream: raw double bit
 *  patterns for the number sweeps. */
uint64_t
XorShift(uint64_t* state)
{
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    return *state;
}

/** snprintf("%.12g"): the bytes JsonWriter::Number(double) must give. */
std::string
PrintfG12(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

std::string
WrittenNumber(double value)
{
    JsonWriter w;
    w.Number(value);
    return w.str();
}

TEST(JsonWriter, NumberMatchesPrintfG12)
{
    std::vector<double> values{
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
        1e21,
        -1e21,
        1e-7,
        123456789012.5,
        999999999999.5,
        9007199254740993.0,  // 2^53 + 1 rounds to 2^53.
        static_cast<double>(std::numeric_limits<int64_t>::max()),
        static_cast<double>(std::numeric_limits<int64_t>::min()),
        static_cast<double>(std::numeric_limits<uint64_t>::max()),
    };
    // Seeded sweep: raw bit patterns (every exponent) and short
    // decimals (the values the service protocol carries).
    uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto next = [&state] { return XorShift(&state); };
    for (int k = 0; k < 50000; ++k) {
        double bits_value = 0.0;
        const uint64_t bits = next();
        std::memcpy(&bits_value, &bits, sizeof(bits_value));
        values.push_back(bits_value);
        const double decimal =
            static_cast<double>(next() % 2000000000) /
            std::pow(10.0, static_cast<double>(next() % 12));
        values.push_back(k % 2 == 0 ? decimal : -decimal);
    }
    for (const double value : values) {
        const std::string expected =
            std::isfinite(value) ? PrintfG12(value) : "null";
        ASSERT_EQ(WrittenNumber(value), expected)
            << std::hexfloat << value;
    }
    for (const int64_t value :
         {std::numeric_limits<int64_t>::min(), int64_t{-1}, int64_t{0},
          std::numeric_limits<int64_t>::max()}) {
        JsonWriter w;
        w.Number(value);
        EXPECT_EQ(w.str(), std::to_string(value));
    }
    for (const uint64_t value :
         {uint64_t{0}, uint64_t{9007199254740993ull},
          std::numeric_limits<uint64_t>::max()}) {
        JsonWriter w;
        w.Number(value);
        EXPECT_EQ(w.str(), std::to_string(value));
    }
}

TEST(JsonWriter, EscapesEveryByteValue)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string text(1, static_cast<char>(b));
        std::string expected;
        switch (b) {
          case '"':
            expected = "\\\"";
            break;
          case '\\':
            expected = "\\\\";
            break;
          case '\b':
            expected = "\\b";
            break;
          case '\f':
            expected = "\\f";
            break;
          case '\n':
            expected = "\\n";
            break;
          case '\r':
            expected = "\\r";
            break;
          case '\t':
            expected = "\\t";
            break;
          default:
            if (b < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", b);
                expected = buf;
            } else {
                expected = text;  // Bytes >= 0x80 pass through as-is.
            }
        }
        JsonWriter w;
        w.BeginObject().Key(text).String("x" + text + "y").EndObject();
        EXPECT_EQ(w.str(),
                  "{\"" + expected + "\":\"x" + expected + "y\"}")
            << "byte " << b;
        all += text;
    }
    // The whole range in one string: escapes between unescaped runs.
    JsonWriter w;
    w.String(all);
    EXPECT_EQ(FnvHex(w.str()), "389221f4f645161b");
}

TEST(ValidateJson, AcceptsValidDocuments)
{
    for (const char* doc :
         {"{}", "[]", "null", "true", "-0.5e+3", "\"\\u00e9\"",
          R"({"a":[1,2,{"b":null}],"c":"d"})", "[[[[]]]]"}) {
        std::string error;
        EXPECT_TRUE(ValidateJson(doc, &error)) << doc << ": " << error;
    }
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    for (const char* doc :
         {"", "{", "}", "[1,]", "{\"a\":}", "{'a':1}", "01", "+1",
          "\"unterminated", "nul", "[1 2]", "{\"a\":1,}", "\x01",
          "{\"a\":1}extra"}) {
        EXPECT_FALSE(ValidateJson(doc)) << "accepted: " << doc;
    }
}

// -- Histogram quantiles ---------------------------------------------------

TEST_F(TelemetryTest, QuantileOfEmptyHistogramIsZero)
{
    Histogram h({1.0, 10.0, 100.0});
    EXPECT_EQ(h.Quantile(0.0), 0.0);
    EXPECT_EQ(h.Quantile(0.5), 0.0);
    EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST_F(TelemetryTest, QuantileInterpolatesWithinSingleBucket)
{
    Histogram h({10.0, 20.0, 30.0});
    // 10 values in the (10, 20] bucket: quantiles interpolate linearly
    // across the bucket span.
    for (int i = 0; i < 10; ++i) {
        h.Record(15.0);
    }
    EXPECT_GT(h.Quantile(0.5), 10.0);
    EXPECT_LE(h.Quantile(0.5), 20.0);
    EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
    EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
    // Quantile(q) is exactly Percentile(100q).
    EXPECT_DOUBLE_EQ(h.Quantile(0.95), h.Percentile(95));
}

TEST_F(TelemetryTest, QuantileOfOverflowBucketReportsRecordedMax)
{
    Histogram h({1.0, 2.0});
    h.Record(0.5);
    h.Record(500.0);   // Overflow bucket (no upper bound).
    h.Record(1000.0);  // Recorded max.
    // With 2/3 of the mass in the unbounded overflow bucket, high
    // quantiles clamp to the recorded max rather than inventing a bound.
    EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1000.0);
    EXPECT_DOUBLE_EQ(h.Quantile(0.67), 1000.0);
    EXPECT_LE(h.Quantile(0.2), 1.0);
}

TEST_F(TelemetryTest, QuantileMergedAcrossThreadsMatchesSerialRecording)
{
    Histogram& merged = GetHistogram("test.quantile.merged",
                                     {1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&merged] {
            for (int i = 0; i < kPerThread; ++i) {
                merged.Record(static_cast<double>(i % 50));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    Histogram serial({1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
    for (int i = 0; i < kPerThread; ++i) {
        serial.Record(static_cast<double>(i % 50));
    }
    EXPECT_EQ(merged.count(), uint64_t{kThreads} * kPerThread);
    // Every thread records the identical distribution, so bucket shares
    // — and therefore interpolated quantiles — match a serial run.
    for (const double q : {0.5, 0.9, 0.95, 0.99}) {
        EXPECT_DOUBLE_EQ(merged.Quantile(q), serial.Quantile(q))
            << "q=" << q;
    }
}

TEST_F(TelemetryTest, StatsJsonReportsTailPercentiles)
{
    GetHistogram("test.p95", {1.0, 2.0}).Record(1.5);
    const std::string json = StatsJson();
    // Dashboards key on the full p50/p90/p95/p99 ladder per histogram.
    EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p90\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p95\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

// -- Gauge high-watermark --------------------------------------------------

TEST_F(TelemetryTest, GaugeUpdateMaxKeepsThePeak)
{
    Gauge& g = GetGauge("test.watermark");
    g.UpdateMax(3.0);
    g.UpdateMax(7.0);
    g.UpdateMax(5.0);  // Below the peak: must not lower it.
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    Registry::Global().Reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, GaugeUpdateMaxUnderContentionKeepsGlobalPeak)
{
    Gauge& g = GetGauge("test.watermark.mt");
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&g, t] {
            for (int i = 0; i < 1000; ++i) {
                g.UpdateMax(static_cast<double>(t * 1000 + i));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_DOUBLE_EQ(g.value(), 7999.0);
}

/** The registry's value for label @p key ("" when unset). */
std::string
LabelValue(const std::string& key)
{
    for (const auto& [name, value] : Registry::Global().LabelSamples()) {
        if (name == key) {
            return value;
        }
    }
    return "";
}

TEST_F(TelemetryTest, LabelIsRewrittenAfterResetAndAfterOtherWrites)
{
    SetLabel("test.label.same", "a");
    SetLabel("test.label.same", "a");
    EXPECT_EQ(LabelValue("test.label.same"), "a");
    // Reset drops labels: the same value must be written again.
    Registry::Global().Reset();
    EXPECT_EQ(LabelValue("test.label.same"), "");
    SetLabel("test.label.same", "a");
    EXPECT_EQ(LabelValue("test.label.same"), "a");
    // After another thread's write, this thread's earlier value is a
    // change again.
    std::thread([] { SetLabel("test.label.same", "b"); }).join();
    EXPECT_EQ(LabelValue("test.label.same"), "b");
    SetLabel("test.label.same", "a");
    EXPECT_EQ(LabelValue("test.label.same"), "a");
}

TEST_F(TelemetryTest, ConcurrentLookupsSnapshotsAndResetsAgree)
{
    // Four threads look up fixed names and names no one has used yet
    // through every lookup path, while a fifth serializes the registry
    // and, until the first stage ends, resets it. Every name must map
    // to one object; the second stage, after the last reset, must
    // count every increment.
    constexpr int kThreads = 4;
    constexpr int kFresh = 64;
    constexpr int kCounted = 4000;
    constexpr int kLate = 16;
    std::atomic<int> raced{0};
    std::atomic<bool> resets_over{false};
    std::atomic<bool> done{false};
    std::thread control([&] {
        while (!done.load()) {
            EXPECT_TRUE(ValidateJson(StatsJson()));
            if (!resets_over.load()) {
                // The last reset follows every first-stage write.
                const bool last = raced.load() == kThreads;
                Registry::Global().Reset();
                resets_over.store(last);
            }
        }
    });
    std::vector<std::vector<const void*>> seen(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            const std::string own = "test.race.own." + std::to_string(t);
            for (int i = 0; i < kFresh; ++i) {
                const std::string shared =
                    "test.race.shared." + std::to_string(i);
                seen[t].push_back(&GetCounter(shared));
                seen[t].push_back(&GetGauge(shared));
                seen[t].push_back(&GetHistogram(shared));
                GetCounter(own + "." + std::to_string(i)).Add(1);
                GetCounter("test.race.fixed").Add(1);
                GetGauge("test.race.fixed").Set(i);
                GetHistogram("test.race.fixed").Record(0.5);
                SetLabel("test.race.label", t % 2 == 0 ? "even" : "odd");
                SetLabel(own, "mine");
                ScopedSpan span("test.race.span");
            }
            ++raced;
            while (!resets_over.load()) {
                std::this_thread::yield();
            }
            for (int i = 0; i < kCounted; ++i) {
                GetCounter("test.race.fixed").Add(1);
                GetCounter("test.race.late." + std::to_string(i % kLate))
                    .Add(1);
                GetHistogram("test.race.fixed").Record(0.5);
                ScopedSpan span("test.race.span");
            }
            SetLabel(own, "mine");
        });
    }
    for (std::thread& worker : workers) {
        worker.join();
    }
    done.store(true);
    control.join();

    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    }
    for (int i = 0; i < kFresh; ++i) {
        const std::string shared = "test.race.shared." + std::to_string(i);
        EXPECT_EQ(seen[0][3 * i], &GetCounter(shared));
        EXPECT_EQ(seen[0][3 * i + 1], &GetGauge(shared));
        EXPECT_EQ(seen[0][3 * i + 2], &GetHistogram(shared));
    }
    const uint64_t counted = uint64_t{kThreads} * kCounted;
    EXPECT_EQ(GetCounter("test.race.fixed").value(), counted);
    EXPECT_EQ(GetHistogram("test.race.fixed").count(), counted);
    EXPECT_EQ(GetHistogram("span.test.race.span.ms").count(), counted);
    for (int i = 0; i < kLate; ++i) {
        EXPECT_EQ(
            GetCounter("test.race.late." + std::to_string(i)).value(),
            counted / kLate);
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(LabelValue("test.race.own." + std::to_string(t)), "mine");
    }
}

TEST(JsonParser, OverflowingNumbersSaturateInsteadOfThrowing)
{
    // 1e400 and -1e400 are syntactically valid JSON numbers that do not
    // fit a double. The parser serves untrusted socket input, so it
    // must saturate (strtod semantics) rather than throw out_of_range.
    JsonValue value;
    std::string error;
    ASSERT_TRUE(ParseJsonValue("1e400", &value, &error)) << error;
    ASSERT_TRUE(value.is_number());
    EXPECT_TRUE(std::isinf(value.as_number()));
    EXPECT_GT(value.as_number(), 0.0);

    ASSERT_TRUE(ParseJsonValue("-1e400", &value, &error)) << error;
    ASSERT_TRUE(value.is_number());
    EXPECT_TRUE(std::isinf(value.as_number()));
    EXPECT_LT(value.as_number(), 0.0);

    // Underflow collapses toward zero instead of throwing.
    ASSERT_TRUE(ParseJsonValue("1e-400", &value, &error)) << error;
    ASSERT_TRUE(value.is_number());
    EXPECT_GE(value.as_number(), 0.0);
    EXPECT_LT(value.as_number(), 1e-300);

    // Ordinary numbers are unaffected.
    ASSERT_TRUE(ParseJsonValue("-12.5e2", &value, &error)) << error;
    EXPECT_DOUBLE_EQ(value.as_number(), -1250.0);
}

TEST(JsonParser, NumbersReadBitForBitAsStrtodReadsThem)
{
    std::vector<std::string> tokens{
        "0", "-0", "5e-324", "2.4703282292062328e-324", "1e-320",
        "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623159e308", "9007199254740993",
        "123456789012345678901234567890", "0.1", "1E+2", "-1e-5"};
    uint64_t state = 0x2545f4914f6cdd1dull;
    const auto next = [&state] { return XorShift(&state); };
    for (int k = 0; k < 20000; ++k) {
        double bits_value = 0.0;
        const uint64_t bits = next();
        std::memcpy(&bits_value, &bits, sizeof(bits_value));
        if (!std::isfinite(bits_value)) {
            continue;
        }
        char buf[40];
        std::snprintf(buf, sizeof(buf), k % 2 == 0 ? "%.17g" : "%.12g",
                      bits_value);
        tokens.emplace_back(buf);
    }
    for (const std::string& token : tokens) {
        JsonValue value;
        std::string error;
        ASSERT_TRUE(ParseJsonValue(token, &value, &error))
            << token << ": " << error;
        const double expected = std::strtod(token.c_str(), nullptr);
        const double parsed = value.as_number();
        EXPECT_EQ(std::memcmp(&expected, &parsed, sizeof(double)), 0)
            << token;
    }
}

}  // namespace
}  // namespace xtalk::telemetry
