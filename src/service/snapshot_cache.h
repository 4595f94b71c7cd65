/**
 * @file
 * Single-flight, LRU-bounded cache of characterization snapshots.
 *
 * Characterizing a device is the most expensive thing the service does
 * (seconds of SRB simulation), and every concurrent client of a daemon
 * typically wants the *same* snapshot — the paper's deployment model
 * is one daily characterization consumed by every compile until the
 * next calibration. The cache turns that access pattern into one
 * computation: the first request for a key becomes the leader and runs
 * the measurement; every request that arrives while it is in flight
 * blocks on the slot and receives the leader's result (a "hit" — it
 * did not spend the measurement itself).
 *
 * Capacity: at most `max_entries` *completed* snapshots are retained
 * (least-recently-used evicted first, counted in `evictions()` and the
 * `svc.cache.evictions` metric), so a hostile key-churn workload —
 * every request inventing a fresh device spec — cannot grow daemon
 * memory without bound. In-flight computations are never evicted: a
 * follower blocked on a slot always observes its leader's outcome.
 *
 * Failure semantics: a leader that throws wakes its followers with the
 * same exception and *removes* the slot, so the next request retries
 * the measurement instead of caching the failure forever. The
 * `cache.fill` fault site fires inside the leader (before the
 * measurement), making exactly this path injectable.
 *
 * Keys are content-derived by the caller (device spec and drift seed +
 * RB budget + policy + seed — see CharacterizationKey in engine.cc), so
 * two requests agree on a key exactly when the measurement they would
 * run is bit-identical.
 */
#ifndef XTALK_SERVICE_SNAPSHOT_CACHE_H
#define XTALK_SERVICE_SNAPSHOT_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "characterization/characterizer.h"
#include "telemetry/trace_context.h"

namespace xtalk::service {

/** Single-flight snapshot cache with an LRU bound. */
class SnapshotCache {
  public:
    /** The measurement to run on a miss (executed outside the lock). */
    using Compute = std::function<CrosstalkCharacterization()>;

    /** Retain at most @p max_entries completed snapshots; 0 =
     *  unbounded. */
    explicit SnapshotCache(size_t max_entries);

    struct Entry {
        std::shared_ptr<const CrosstalkCharacterization> data;
        /** data->SnapshotId(), computed once by the call that filled
         *  the entry, so a hit hashes nothing. */
        std::string id;
        /** True when this call did not run the measurement itself —
         *  the snapshot was already cached or another request's
         *  in-flight computation was joined. */
        bool hit = false;
    };

    /**
     * Return the snapshot for @p key, running @p compute at most once
     * across all concurrent callers. Rethrows the leader's exception
     * in every caller that joined the failed flight.
     */
    Entry GetOrCompute(const std::string& key, const Compute& compute);

    /** Calls served without running the measurement. */
    uint64_t hits() const;
    /** Calls that ran (or started) the measurement. */
    uint64_t misses() const;
    /** Completed snapshots dropped to stay within max_entries. */
    uint64_t evictions() const;
    /** Completed snapshots currently cached. */
    size_t size() const;

    /** Drop every cached snapshot (in-flight computations finish). */
    void Clear();

  private:
    struct Slot {
        bool ready = false;
        bool failed = false;
        std::shared_ptr<const CrosstalkCharacterization> data;
        std::string id;
        std::exception_ptr error;
        /** Trace context of the request that ran the measurement, so
         *  followers (and later hits) can journal a link to the fill
         *  (`svc.cache.link` -> leader's `svc.cache.fill`). */
        telemetry::TraceContext leader;
        /** Span id of the leader's fill, minted when the flight starts. */
        uint64_t fill_span = 0;
        /** Position in lru_; valid only while ready. */
        std::list<std::string>::iterator lru_it;
    };

    /** Evict ready slots beyond max_entries. Caller holds mutex_. */
    void EvictOverCapacityLocked();

    const size_t max_entries_;
    mutable std::mutex mutex_;
    std::condition_variable slot_ready_;
    std::map<std::string, std::shared_ptr<Slot>> slots_;
    /** Ready keys, most-recently-used first. */
    std::list<std::string> lru_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

}  // namespace xtalk::service

#endif  // XTALK_SERVICE_SNAPSHOT_CACHE_H
