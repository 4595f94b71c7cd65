/**
 * @file
 * Flight-recorder event journal: a lock-sharded, bounded, in-memory
 * log of typed, timestamped, key-value events, drained to JSONL.
 *
 * The metrics registry (telemetry.h) answers "what were the totals of
 * this run?"; the journal answers "what happened, in what order?" —
 * which SRB experiment failed, when it was retried, which solver round
 * returned unknown, which pass the verifier rejected, which fault the
 * registry injected. That post-hoc record is what turns a degraded run
 * (exit 0 with quarantined pairs, or exit 3 with a crash dump) into a
 * diagnosable one.
 *
 * Design:
 *  - Sharded: events land in one of kNumShards ring-less bounded
 *    buffers selected by the emitting thread's telemetry tid, so
 *    concurrent emitters rarely contend on one mutex. Timestamps and
 *    sequence numbers are assigned under the shard lock, so events in
 *    one shard are totally ordered by (seq, ts_us).
 *  - Bounded: each shard stops appending at its capacity and counts
 *    drops instead of growing without limit.
 *  - Cheap when off: JournalEmit() is one relaxed atomic load when the
 *    journal is disabled — same contract as the metrics registry.
 *
 * Enablement: SetJournalEnabled(true), the XTALK_JOURNAL=1 environment
 * variable (read once at process start), or `xtalkc --journal=FILE`
 * (which also arms a terminate-handler dump so crashes leave the
 * journal behind — see ArmCrashDump()).
 *
 * Output (schema xtalk.journal.v1): one JSON object per line. The
 * first line is a header record; every following line is one event:
 *
 *   {"schema":"xtalk.journal.v1","run":"…","events":12,"dropped":0}
 *   {"ts_us":81.2,"shard":3,"seq":1,"tid":4,"type":"exec.chunk",
 *    "fields":{"job":0,"chunk":2,"sim_ms":1.25}}
 *
 * See docs/OBSERVABILITY.md for the event-type catalogue.
 */
#ifndef XTALK_TELEMETRY_JOURNAL_H
#define XTALK_TELEMETRY_JOURNAL_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace xtalk::telemetry {

namespace internal {
extern std::atomic<bool> g_journal;
}  // namespace internal

/** True when journal sites record (relaxed load; hot-path safe). */
inline bool
JournalEnabled()
{
    return internal::g_journal.load(std::memory_order_relaxed);
}

/** Turn journal recording on or off at runtime. */
void SetJournalEnabled(bool enabled);

/**
 * A typed field value. Numbers keep their type so the JSONL output
 * stays machine-comparable (no "3" vs 3 ambiguity).
 */
class JournalValue {
  public:
    enum class Kind { kString, kUint, kInt, kDouble, kBool };

    JournalValue(const char* v) : kind_(Kind::kString), str_(v) {}
    JournalValue(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}
    JournalValue(double v) : kind_(Kind::kDouble) { num_.d = v; }
    JournalValue(bool v) : kind_(Kind::kBool) { num_.b = v; }
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    JournalValue(T v)
        : kind_(std::is_signed_v<T> ? Kind::kInt : Kind::kUint)
    {
        if constexpr (std::is_signed_v<T>) {
            num_.i = static_cast<int64_t>(v);
        } else {
            num_.u = static_cast<uint64_t>(v);
        }
    }

    Kind kind() const { return kind_; }
    const std::string& str() const { return str_; }
    uint64_t as_uint() const { return num_.u; }
    int64_t as_int() const { return num_.i; }
    double as_double() const { return num_.d; }
    bool as_bool() const { return num_.b; }

  private:
    Kind kind_;
    std::string str_;
    union {
        uint64_t u;
        int64_t i;
        double d;
        bool b;
    } num_ = {0};
};

/** One journal record. Identity fields (run/job/attempt ids) travel in
 *  `fields` under conventional keys — see docs/OBSERVABILITY.md. */
struct JournalRecord {
    double ts_us = 0.0;  ///< Microseconds since the process trace epoch.
    uint32_t shard = 0;  ///< Shard the event landed in.
    uint64_t seq = 0;    ///< 1-based sequence number within the shard.
    uint32_t tid = 0;    ///< Telemetry thread id of the emitter.
    std::string type;    ///< Event type, dotted lowercase (`exec.chunk`).
    std::vector<std::pair<std::string, JournalValue>> fields;
};

/**
 * The process-wide journal. Appends are sharded by emitting thread;
 * Snapshot()/ToJsonl() merge shards into one timestamp-ordered view
 * that preserves each shard's internal order (per-shard timestamps are
 * monotonic because they are taken under the shard lock).
 */
class Journal {
  public:
    static Journal& Global();

    static constexpr size_t kNumShards = 8;
    /** Per-shard event bound (default 8192, 64Ki events total). */
    static constexpr size_t kDefaultShardCapacity = 8192;

    /** Append one event; ts/shard/seq/tid are assigned here. */
    void Emit(const char* type,
              std::initializer_list<std::pair<const char*, JournalValue>>
                  fields);

    /** All retained events, stably sorted by timestamp (per-shard order
     *  preserved). */
    std::vector<JournalRecord> Snapshot() const;

    /** Events discarded because their shard was full. */
    uint64_t dropped() const;
    /** Retained events across all shards. */
    uint64_t size() const;
    size_t shard_capacity() const;
    /** Shrinking below a shard's current size discards its tail. */
    void SetShardCapacity(size_t capacity);
    void Clear();

    /** Serialize header + events as JSONL (see file comment). */
    std::string ToJsonl() const;
    /** Write ToJsonl() to @p path. False (with @p error set) on failure. */
    bool WriteJsonl(const std::string& path,
                    std::string* error = nullptr) const;

  private:
    Journal() = default;
    struct Impl;
    Impl& impl() const;
};

/**
 * Hot-path emit helper: one relaxed atomic load when the journal is
 * disabled, nothing else.
 *
 *   telemetry::JournalEmit("sched.solve", {{"round", round},
 *                                          {"verdict", "sat"}});
 */
inline void
JournalEmit(const char* type,
            std::initializer_list<std::pair<const char*, JournalValue>>
                fields)
{
    if (!JournalEnabled()) {
        return;
    }
    Journal::Global().Emit(type, fields);
}

/**
 * Stable identifier of this process run (hex, derived from wall clock
 * and pid on first use; SetRunId overrides). Stamped into the journal
 * header and the run ledger so the two artifacts cross-reference.
 */
std::string RunId();
void SetRunId(const std::string& run_id);

/**
 * Arm a std::terminate-handler that best-effort writes the journal to
 * @p path before the process dies, so crashes (uncaught exceptions,
 * aborts routed through terminate) leave evidence behind. Idempotent;
 * the last path wins. Pass "" to disarm.
 */
void ArmCrashDump(const std::string& path);

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_JOURNAL_H
