/**
 * @file
 * Tests for the hierarchical profiler (src/telemetry/profiler):
 * frame-stack aggregation through ScopedSpan, merged cost-tree
 * invariants (root inclusive covers the wall clock, exclusive is
 * non-negative), determinism of the tree *structure* across executor
 * thread counts, the collapsed-stack export, and the disabled-mode
 * zero-recording guarantee.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "device/ibmq_devices.h"
#include "runtime/executor.h"
#include "scheduler/scheduler.h"
#include "telemetry/json.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk::telemetry {
namespace {

/** Every test starts with a clean registry and an empty cost tree. */
class ProfilerTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        SetEnabled(true);
        SetTracingEnabled(false);
        SetProfilingEnabled(true);
        ResetProfile();
        Registry::Global().Reset();
    }

    void
    TearDown() override
    {
        SetProfilingEnabled(false);
        ResetProfile();
        SetEnabled(false);
        Registry::Global().Reset();
    }
};

/** Flatten a cost tree into path -> (calls, inclusive_us). */
void
FlattenInto(const ProfileNode& node, const std::string& prefix,
            std::map<std::string, uint64_t>* calls,
            std::map<std::string, double>* inclusive)
{
    const std::string path =
        prefix.empty() ? node.name : prefix + ";" + node.name;
    (*calls)[path] = node.calls;
    (*inclusive)[path] = node.inclusive_us;
    for (const ProfileNode& child : node.children) {
        FlattenInto(child, path, calls, inclusive);
    }
}

std::map<std::string, uint64_t>
FlattenCalls(const ProfileNode& root)
{
    std::map<std::string, uint64_t> calls;
    std::map<std::string, double> inclusive;
    FlattenInto(root, "", &calls, &inclusive);
    return calls;
}

TEST_F(ProfilerTest, NestedSpansAggregateByPath)
{
    for (int i = 0; i < 3; ++i) {
        ScopedSpan outer("prof.outer");
        for (int j = 0; j < 2; ++j) {
            ScopedSpan inner("prof.inner");
        }
    }
    {
        // The same name at a different depth is a different path.
        ScopedSpan inner("prof.inner");
    }
    const ProfileNode root = ProfileSnapshot();
    const auto calls = FlattenCalls(root);
    EXPECT_EQ(root.name, "process");
    EXPECT_EQ(calls.at("process;prof.outer"), 3u);
    EXPECT_EQ(calls.at("process;prof.outer;prof.inner"), 6u);
    EXPECT_EQ(calls.at("process;prof.inner"), 1u);
}

TEST_F(ProfilerTest, RootInclusiveCoversChildrenAndWallClock)
{
    {
        ScopedSpan span("prof.sleep");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const ProfileNode root = ProfileSnapshot();
    ASSERT_EQ(root.children.size(), 1u);
    // Root inclusive is the wall time since enable/reset, so it bounds
    // any single-threaded child from above.
    EXPECT_GE(root.inclusive_us, root.children[0].inclusive_us);
    EXPECT_GE(root.children[0].inclusive_us, 4000.0);
    EXPECT_GE(root.exclusive_us, 0.0);
    for (const ProfileNode& child : root.children) {
        EXPECT_GE(child.exclusive_us, 0.0);
    }
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing)
{
    SetProfilingEnabled(false);
    ResetProfile();
    {
        ScopedSpan span("prof.invisible");
    }
    const ProfileNode root = ProfileSnapshot();
    EXPECT_TRUE(root.children.empty());
}

TEST_F(ProfilerTest, SpanOpenAcrossDisableStillClosesCleanly)
{
    // A span that outlives a ResetProfile() must not corrupt the tree:
    // its node survives the prune and absorbs the exit.
    ScopedSpan* span = new ScopedSpan("prof.straddle");
    ResetProfile();
    delete span;
    const ProfileNode root = ProfileSnapshot();
    const auto calls = FlattenCalls(root);
    EXPECT_EQ(calls.at("process;prof.straddle"), 1u);
}

TEST_F(ProfilerTest, CostTreeStructureDeterministicAcrossThreadCounts)
{
    const Device device = MakeLinearDevice(4, 11, /*with_crosstalk=*/true);
    Circuit circuit(4);
    circuit.H(0).CX(0, 1).CX(2, 3).CX(1, 2).MeasureAll();
    const ScheduledCircuit schedule = AsapSchedule(circuit, device);

    auto tree_at = [&](int threads) {
        ResetProfile();
        {
            runtime::ExecutorOptions options;
            options.num_threads = threads;
            runtime::Executor executor(device, options);
            runtime::ExecutionJob job;
            job.schedule = schedule;
            job.seed = 99;
            job.spec = RunSpec{512, std::nullopt, 8};
            job.backend = runtime::SimBackend::kStatevector;
            const runtime::ExecutionResult result =
                executor.Run(std::move(job));
            EXPECT_TRUE(result.ok);
            EXPECT_GT(result.chunks, 1);
            // Executor (and its private pool) joins here, so every
            // worker's runtime.pool.job frame has exited before the
            // snapshot below.
        }
        return FlattenCalls(ProfileSnapshot());
    };

    const auto at1 = tree_at(1);
    const auto at2 = tree_at(2);
    const auto at8 = tree_at(8);
    // Merging per-thread trees by name makes the path set and call
    // counts a function of the workload alone; only times vary.
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at8);
    EXPECT_GE(at1.at("process;runtime.pool.job"), 2u);
    EXPECT_EQ(at1.at("process;runtime.pool.job;runtime.executor.chunk"),
              at1.at("process;runtime.pool.job"));
    EXPECT_EQ(
        at1.count(
            "process;runtime.pool.job;runtime.executor.chunk;"
            "sim.statevector.run"),
        1u);
}

TEST_F(ProfilerTest, CollapsedStacksRoundTripAgainstSnapshot)
{
    for (int i = 0; i < 4; ++i) {
        ScopedSpan outer("prof.fold.outer");
        ScopedSpan inner("prof.fold.inner");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string folded = CollapsedStacks();
    const ProfileNode root = ProfileSnapshot();
    std::map<std::string, uint64_t> calls;
    std::map<std::string, double> inclusive;
    FlattenInto(root, "", &calls, &inclusive);

    ASSERT_FALSE(folded.empty());
    std::istringstream lines(folded);
    std::string line;
    int parsed = 0;
    bool saw_inner = false;
    while (std::getline(lines, line)) {
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string path = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        // Every line is "semicolon;joined;path <integer us>".
        EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos)
            << line;
        EXPECT_GT(std::stoull(value), 0u) << line;
        // And names a path that exists in the snapshot.
        EXPECT_EQ(calls.count(path), 1u) << path;
        saw_inner |= path == "process;prof.fold.outer;prof.fold.inner";
        ++parsed;
    }
    EXPECT_GE(parsed, 1);
    // The leaf holds all the sleep time, so it must survive rounding.
    EXPECT_TRUE(saw_inner) << folded;
}

TEST_F(ProfilerTest, ProfileJsonIsValidAndCarriesSchema)
{
    {
        ScopedSpan span("prof.json");
    }
    const std::string json = ProfileJson();
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"schema\":\"xtalk.profile.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"prof.json\""), std::string::npos);
    EXPECT_NE(json.find("\"wall_ms\":"), std::string::npos);
}

TEST_F(ProfilerTest, ResetClearsAccumulatedFrames)
{
    {
        ScopedSpan span("prof.stale");
    }
    ResetProfile();
    const ProfileNode root = ProfileSnapshot();
    EXPECT_TRUE(FlattenCalls(root).count("process;prof.stale") == 0u);
}

TEST_F(ProfilerTest, EnablingProfilerImpliesTelemetry)
{
    SetProfilingEnabled(false);
    SetEnabled(false);
    SetProfilingEnabled(true);
    EXPECT_TRUE(Enabled());
    EXPECT_TRUE(ProfilingEnabled());
}

}  // namespace
}  // namespace xtalk::telemetry
