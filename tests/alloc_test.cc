/**
 * @file
 * Heap allocations per warm service request.
 *
 * Replaces the global operator new with one that counts every call, on
 * every thread (a simulate's shot chunks run on the executor pool), so
 * this suite is its own executable and the counter touches no other
 * test. It serves each of the nine compile_warm shapes once to warm the
 * engine, then counts one more compile, one daemon-shaped round trip
 * (wire line in, wire line out) and one 8,192-shot greedy simulate of
 * each, and holds the sums under ceilings.
 */
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/qasm.h"
#include "device/ibmq_devices.h"
#include "service/api.h"
#include "service/engine.h"

#include "compile_warm_shapes.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void*
CountedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void*
CountedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(alignment,
                              (size + alignment - 1) / alignment * alignment);
}

/** Out of line, so the compiler does not pair an inlined delete's free
 *  with the operator new it sees at the same call site. */
[[gnu::noinline]] void
Free(void* p) noexcept
{
    std::free(p);
}

}  // namespace

void*
operator new(std::size_t size)
{
    if (void* p = CountedAlloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return CountedAlloc(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return CountedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    if (void* p = CountedAlignedAlloc(size, align)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    Free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    Free(p);
}

namespace xtalk::service {
namespace {

/** Allocations made, on any thread, while @p f runs. */
template <typename F>
uint64_t
CountAllocations(F&& f)
{
    const uint64_t before = g_allocations.load();
    f();
    return g_allocations.load() - before;
}

TEST(Allocations, WarmRequestsStayUnderTheirCeilings)
{
    // Sums over the nine shapes, about 10% over the counts measured when
    // gate operands moved inline, Counts became sorted rows and exact
    // sampling a bin table: 2,527 compile, 2,735 daemon-shaped and
    // 2,534 simulate (4,514, 4,722 and 10,565 before).
    constexpr uint64_t kCompileCeiling = 2800;
    constexpr uint64_t kDaemonCeiling = 3000;
    constexpr uint64_t kSimulateCeiling = 2800;

    // The counts are of requests as served. XTALK_VERIFY_PASSES, which
    // some test runs set for every process, adds the inter-pass checks
    // to each compile (four times the allocations); it is read once, on
    // the first compile, so clearing it here keeps it off.
    ::unsetenv("XTALK_VERIFY_PASSES");
    Engine engine;
    const std::vector<Circuit> shapes =
        test_shapes::CompileWarmShapes(MakePoughkeepsie(), 1);
    std::vector<ServiceRequest> compiles;
    std::vector<ServiceRequest> simulates;
    for (size_t k = 0; k < shapes.size(); ++k) {
        ServiceRequest request;
        request.id = "alloc-" + std::to_string(k);
        request.qasm = ToQasm(shapes[k]);
        compiles.push_back(request);
        request.scheduler = "greedy";
        request.simulate_shots = 8192;
        simulates.push_back(std::move(request));
    }
    for (const std::vector<ServiceRequest>* requests :
         {&compiles, &simulates}) {
        for (const ServiceRequest& request : *requests) {
            ASSERT_EQ(engine.Handle(request).code, StatusCode::kOk);
        }
    }

    uint64_t compile = 0;
    uint64_t daemon = 0;
    uint64_t simulate = 0;
    for (size_t k = 0; k < shapes.size(); ++k) {
        const std::string line = compiles[k].ToJson();
        StatusCode code = StatusCode::kError;
        const uint64_t one_compile = CountAllocations(
            [&] { code = engine.Handle(compiles[k]).code; });
        EXPECT_EQ(code, StatusCode::kOk) << k;
        const uint64_t one_daemon = CountAllocations([&] {
            ServiceRequest request;
            std::string error;
            ASSERT_TRUE(ServiceRequest::FromJson(line, &request, &error))
                << error;
            const std::string reply = engine.Handle(request).ToJson();
            EXPECT_FALSE(reply.empty());
        });
        const uint64_t one_simulate = CountAllocations(
            [&] { code = engine.Handle(simulates[k]).code; });
        EXPECT_EQ(code, StatusCode::kOk) << k;
        std::printf("shape %zu: compile %llu, daemon-shaped %llu, "
                    "simulate %llu allocations\n",
                    k, static_cast<unsigned long long>(one_compile),
                    static_cast<unsigned long long>(one_daemon),
                    static_cast<unsigned long long>(one_simulate));
        compile += one_compile;
        daemon += one_daemon;
        simulate += one_simulate;
    }
    std::printf("total: compile %llu, daemon-shaped %llu, simulate %llu\n",
                static_cast<unsigned long long>(compile),
                static_cast<unsigned long long>(daemon),
                static_cast<unsigned long long>(simulate));
    EXPECT_LE(compile, kCompileCeiling);
    EXPECT_LE(daemon, kDaemonCeiling);
    EXPECT_LE(simulate, kSimulateCeiling);
}

}  // namespace
}  // namespace xtalk::service
