#include "telemetry/trace_context.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <mutex>

namespace xtalk::telemetry {

namespace {

thread_local TraceContext t_context;

/** SplitMix64 step: the deterministic stream behind seeded minting,
 *  and the fallback mixer when /dev/urandom is unavailable. */
uint64_t
SplitMix64(uint64_t* state)
{
    uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct Minter {
    std::mutex mu;
    bool seeded = false;
    uint64_t state = 0;

    Minter()
    {
        if (const char* env = std::getenv("XTALK_TRACE_SEED")) {
            char* end = nullptr;
            const unsigned long long parsed =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0') {
                seeded = true;
                state = static_cast<uint64_t>(parsed);
            }
        }
    }

    uint64_t
    Next()
    {
        std::lock_guard<std::mutex> lock(mu);
        if (seeded) {
            return SplitMix64(&state);
        }
        uint64_t value = 0;
        static const int fd = ::open("/dev/urandom", O_RDONLY);
        if (fd >= 0 &&
            ::read(fd, &value, sizeof(value)) ==
                static_cast<ssize_t>(sizeof(value))) {
            return value;
        }
        // No urandom (sandboxed build env): mix the clocks through the
        // same generator. Uniqueness matters here, secrecy does not.
        uint64_t mixed =
            state ^
            static_cast<uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch()
                    .count()) ^
            (static_cast<uint64_t>(::getpid()) << 32);
        const uint64_t out = SplitMix64(&mixed);
        state = mixed;
        return out;
    }
};

Minter&
GlobalMinter()
{
    static Minter minter;
    return minter;
}

const char kHexDigits[] = "0123456789abcdef";

void
AppendHex64(uint64_t value, std::string* out)
{
    for (int shift = 60; shift >= 0; shift -= 4) {
        out->push_back(kHexDigits[(value >> shift) & 0xF]);
    }
}

/** Parse exactly @p digits lowercase/uppercase hex chars. */
bool
ParseHex(const std::string& text, size_t offset, size_t digits,
         uint64_t* out)
{
    uint64_t value = 0;
    for (size_t i = 0; i < digits; ++i) {
        const char c = text[offset + i];
        value <<= 4;
        if (c >= '0' && c <= '9') {
            value |= static_cast<uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value |= static_cast<uint64_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
            value |= static_cast<uint64_t>(c - 'A' + 10);
        } else {
            return false;
        }
    }
    *out = value;
    return true;
}

}  // namespace

std::string
TraceContext::trace_id() const
{
    if (!valid()) {
        return "";
    }
    std::string out;
    out.reserve(32);
    AppendHex64(trace_hi, &out);
    AppendHex64(trace_lo, &out);
    return out;
}

std::string
TraceContext::span_id() const
{
    if (!valid()) {
        return "";
    }
    return SpanIdHex(span);
}

std::string
SpanIdHex(uint64_t span)
{
    std::string out;
    out.reserve(16);
    AppendHex64(span, &out);
    return out;
}

bool
ParseTraceId(const std::string& hex, TraceContext* out)
{
    if (hex.size() != 32) {
        return false;
    }
    uint64_t hi = 0;
    uint64_t lo = 0;
    if (!ParseHex(hex, 0, 16, &hi) || !ParseHex(hex, 16, 16, &lo)) {
        return false;
    }
    if ((hi | lo) == 0) {
        return false;  // The all-zero id means "no trace".
    }
    out->trace_hi = hi;
    out->trace_lo = lo;
    return true;
}

bool
ParseSpanId(const std::string& hex, uint64_t* out)
{
    if (hex.size() != 16) {
        return false;
    }
    uint64_t span = 0;
    if (!ParseHex(hex, 0, 16, &span)) {
        return false;
    }
    *out = span;
    return true;
}

TraceContext
CurrentTraceContext()
{
    return t_context;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : previous_(t_context)
{
    t_context = context;
}

ScopedTraceContext::~ScopedTraceContext()
{
    t_context = previous_;
}

TraceContext
MintTraceContext()
{
    Minter& minter = GlobalMinter();
    TraceContext context;
    context.trace_hi = minter.Next();
    context.trace_lo = minter.Next();
    context.span = minter.Next();
    if (!context.valid()) {
        context.trace_lo = 1;  // Astronomically unlikely; still never 0.
    }
    return context;
}

uint64_t
MintSpanId()
{
    return GlobalMinter().Next();
}

void
SeedTraceIds(uint64_t seed)
{
    Minter& minter = GlobalMinter();
    std::lock_guard<std::mutex> lock(minter.mu);
    minter.seeded = true;
    minter.state = seed;
}

bool
TraceIdsSeeded()
{
    Minter& minter = GlobalMinter();
    std::lock_guard<std::mutex> lock(minter.mu);
    return minter.seeded;
}

}  // namespace xtalk::telemetry
