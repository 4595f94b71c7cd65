#include "service/snapshot_cache.h"

#include "faults/faults.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_context.h"

namespace xtalk::service {

namespace {

/**
 * Journal the cross-request edge from a served snapshot back to the
 * flight that measured it. The emitting request's own trace is stamped
 * automatically by Journal::Emit; link_trace/link_span point at the
 * leader's `svc.cache.fill`, so a trace graph can attribute "this
 * request's characterization cost was paid by that request".
 */
void
JournalCacheLink(const telemetry::TraceContext& leader, uint64_t fill_span)
{
    if (!leader.valid()) {
        return;
    }
    telemetry::JournalEmit(
        "svc.cache.link", {{"link_trace", leader.trace_id()},
                           {"link_span", telemetry::SpanIdHex(fill_span)}});
}

}  // namespace

SnapshotCache::SnapshotCache(size_t max_entries) : max_entries_(max_entries)
{
}

void
SnapshotCache::EvictOverCapacityLocked()
{
    if (max_entries_ == 0) {
        return;  // Unbounded.
    }
    while (lru_.size() > max_entries_) {
        // Only ready slots live in lru_, so the victim is never an
        // in-flight computation with blocked followers.
        const std::string victim = lru_.back();
        lru_.pop_back();
        slots_.erase(victim);
        ++evictions_;
        if (telemetry::Enabled()) {
            telemetry::GetCounter("svc.cache.evictions").Add(1);
        }
    }
}

SnapshotCache::Entry
SnapshotCache::GetOrCompute(const std::string& key, const Compute& compute)
{
    std::shared_ptr<Slot> slot;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto it = slots_.find(key);
        if (it != slots_.end()) {
            slot = it->second;
            slot_ready_.wait(lock, [&] {
                return slot->ready || slot->failed;
            });
            if (slot->failed) {
                // The leader already removed the slot from the map;
                // rethrow its failure without counting a hit, so the
                // metrics say "this call got no snapshot".
                std::rethrow_exception(slot->error);
            }
            ++hits_;
            // Freshen recency — but only if *this* slot still owns the
            // key: an eviction (and possibly a re-computation under a
            // new slot) may have raced in while this follower waited,
            // leaving slot->lru_it dangling.
            auto surviving = slots_.find(key);
            if (surviving != slots_.end() && surviving->second == slot &&
                slot->lru_it != lru_.begin()) {
                lru_.splice(lru_.begin(), lru_, slot->lru_it);
            }
            if (telemetry::Enabled()) {
                telemetry::GetCounter("svc.cache.hits").Add(1);
            }
            JournalCacheLink(slot->leader, slot->fill_span);
            return Entry{slot->data, slot->id, true};
        }
        slot = std::make_shared<Slot>();
        // Record who is paying for this flight before any follower can
        // join: followers read these fields to link their hit back to
        // this leader's fill.
        slot->leader = telemetry::CurrentTraceContext();
        slot->fill_span = telemetry::MintSpanId();
        slots_[key] = slot;
        ++misses_;
        if (telemetry::Enabled()) {
            telemetry::GetCounter("svc.cache.misses").Add(1);
        }
    }
    // Leader: run the measurement outside the lock so followers block
    // on the slot, not on every other key's traffic.
    try {
        faults::MaybeInject("cache.fill");
        auto data = std::make_shared<const CrosstalkCharacterization>(
            compute());
        std::string id = data->SnapshotId();
        // "fill_span", not "span": Emit appends the emitting context's
        // own "span" field centrally, and the two must not collide.
        telemetry::JournalEmit(
            "svc.cache.fill",
            {{"fill_span", telemetry::SpanIdHex(slot->fill_span)}});
        std::lock_guard<std::mutex> lock(mutex_);
        slot->data = std::move(data);
        slot->id = std::move(id);
        slot->ready = true;
        lru_.push_front(key);
        slot->lru_it = lru_.begin();
        EvictOverCapacityLocked();
        slot_ready_.notify_all();
        return Entry{slot->data, slot->id, false};
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        slot->failed = true;
        slot->error = std::current_exception();
        // Drop the slot so the next request retries the measurement
        // instead of serving a cached failure forever. Followers still
        // hold the shared_ptr and observe `failed`.
        slots_.erase(key);
        slot_ready_.notify_all();
        throw;
    }
}

uint64_t
SnapshotCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

uint64_t
SnapshotCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

uint64_t
SnapshotCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

size_t
SnapshotCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

void
SnapshotCache::Clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // In-flight slots stay: their leader still holds a shared_ptr and
    // will publish into it; dropping the map entry would just detach
    // future requests from that flight, which is correct too.
    for (auto it = slots_.begin(); it != slots_.end();) {
        if (it->second->ready) {
            it = slots_.erase(it);
        } else {
            ++it;
        }
    }
    lru_.clear();
}

}  // namespace xtalk::service
