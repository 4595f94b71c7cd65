/**
 * @file
 * Request-scoped distributed-trace context.
 *
 * One TraceContext names one unit of externally-visible work: a
 * 128-bit trace id shared by everything done on behalf of one service
 * request, plus a 64-bit span id naming the step currently executing.
 * The context travels in a thread-local slot (CurrentTraceContext);
 * the runtime thread pool captures the submitting thread's context at
 * enqueue time and restores it inside the worker, so journal events,
 * trace-buffer spans, and fault-injection records emitted from pool
 * workers carry the request that caused them — not the worker that
 * happened to run them.
 *
 * Stamping is centralized: Journal::Emit and ScopedSpan read the
 * thread-local context themselves, so instrumentation sites need no
 * changes to participate. A thread with no context (the default) emits
 * unstamped events, exactly as before this module existed.
 *
 * Minting: MintTraceContext() draws from /dev/urandom by default, or
 * from a deterministic SplitMix64 stream after SeedTraceIds(seed) —
 * `xtalkc --trace-seed` / XTALK_TRACE_SEED — so tests and differential
 * harnesses get bit-identical ids run over run.
 *
 * Wire form (docs/SERVICE.md): the xtalk.request.v1 `trace` object
 * carries `trace_id` (32 lowercase hex chars) and `span_id` (16).
 */
#ifndef XTALK_TELEMETRY_TRACE_CONTEXT_H
#define XTALK_TELEMETRY_TRACE_CONTEXT_H

#include <cstdint>
#include <string>

namespace xtalk::telemetry {

/** One request's trace identity. Zero trace bits = "no context". */
struct TraceContext {
    uint64_t trace_hi = 0;  ///< High 64 bits of the 128-bit trace id.
    uint64_t trace_lo = 0;  ///< Low 64 bits.
    uint64_t span = 0;      ///< Current span within the trace.

    /** True when this names a real trace (either half non-zero). */
    bool valid() const { return (trace_hi | trace_lo) != 0; }

    /** 32 lowercase hex chars; "" when !valid(). */
    std::string trace_id() const;
    /** 16 lowercase hex chars; "" when !valid(). */
    std::string span_id() const;
};

/** 16 lowercase hex chars for one span id. */
std::string SpanIdHex(uint64_t span);

/**
 * Parse a 32-hex-char trace id into @p out's trace_hi/trace_lo
 * (span untouched). False on wrong length, non-hex characters, or the
 * all-zero id; @p out is untouched on failure.
 */
bool ParseTraceId(const std::string& hex, TraceContext* out);

/** Parse a 16-hex-char span id. Same contract as ParseTraceId. */
bool ParseSpanId(const std::string& hex, uint64_t* out);

/** The calling thread's current context (invalid when none is set). */
TraceContext CurrentTraceContext();

/**
 * RAII: install @p context for the enclosing scope, restoring whatever
 * the thread carried before on destruction. This is the only way to
 * set a context, so a stale id never leaks into whatever the thread
 * does next.
 */
class ScopedTraceContext {
  public:
    explicit ScopedTraceContext(const TraceContext& context);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext&) = delete;
    ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  private:
    TraceContext previous_;
};

/**
 * Mint a fresh context: trace id and root span from /dev/urandom, or
 * from the deterministic stream when SeedTraceIds() was called (or
 * XTALK_TRACE_SEED is set). Never returns an invalid context.
 */
TraceContext MintTraceContext();

/** Mint one span id from the same source as MintTraceContext(). */
uint64_t MintSpanId();

/**
 * Switch minting to a deterministic SplitMix64 stream seeded with
 * @p seed. Ids become reproducible run over run — the property the
 * seeded-determinism tests and `xtalkc --trace-seed` rely on.
 */
void SeedTraceIds(uint64_t seed);

/** True when minting is deterministic (SeedTraceIds / env seed). */
bool TraceIdsSeeded();

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_TRACE_CONTEXT_H
