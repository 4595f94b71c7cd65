#include "telemetry/profiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace xtalk::telemetry {

namespace internal {
std::atomic<bool> g_profiling{false};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

/** One node of a per-thread accumulation tree. Children are keyed by
 *  span name in a std::map so traversal order is deterministic. */
struct FrameNode {
    std::string name;
    uint64_t calls = 0;
    double inclusive_us = 0.0;
    std::map<std::string, std::unique_ptr<FrameNode>> children;
};

/**
 * A thread's private tree plus its open-frame stack. The mutex guards
 * the tree against concurrent snapshots; enter/exit take it
 * uncontended (spans are coarse-grained — same trade as TraceBuffer).
 */
struct ThreadTree {
    std::mutex mu;
    FrameNode root;  ///< Sentinel; top-level frames are its children.
    std::vector<FrameNode*> stack;
};

struct ProfilerState {
    std::mutex mu;
    std::vector<ThreadTree*> trees;  ///< Never freed; threads are bounded.
    Clock::time_point epoch = Clock::now();
};

ProfilerState&
State()
{
    // Leaked on purpose, like the trees it lists: pool workers can open
    // their first span while the shared pool shuts down at exit.
    static ProfilerState* state = new ProfilerState;
    return *state;
}

thread_local ThreadTree* t_tree = nullptr;

ThreadTree&
LocalTree()
{
    if (t_tree == nullptr) {
        t_tree = new ThreadTree();
        ProfilerState& state = State();
        std::lock_guard<std::mutex> lock(state.mu);
        state.trees.push_back(t_tree);
    }
    return *t_tree;
}

struct EnvInit {
    EnvInit()
    {
        if (const char* env = std::getenv("XTALK_PROFILE")) {
            if (std::string(env) != "0") {
                SetProfilingEnabled(true);
            }
        }
    }
};
const EnvInit g_env_init;

/** Merge @p src into @p dst by name, recursively. */
void
MergeInto(ProfileNode* dst, const FrameNode& src)
{
    dst->calls += src.calls;
    dst->inclusive_us += src.inclusive_us;
    for (const auto& [name, child] : src.children) {
        auto it = std::find_if(
            dst->children.begin(), dst->children.end(),
            [&](const ProfileNode& n) { return n.name == name; });
        if (it == dst->children.end()) {
            dst->children.push_back(ProfileNode{name, 0, 0.0, 0.0, {}});
            it = std::prev(dst->children.end());
        }
        MergeInto(&*it, *child);
    }
}

void
FinalizeNode(ProfileNode* node)
{
    std::sort(node->children.begin(), node->children.end(),
              [](const ProfileNode& a, const ProfileNode& b) {
                  return a.name < b.name;
              });
    double child_inclusive = 0.0;
    for (ProfileNode& child : node->children) {
        FinalizeNode(&child);
        child_inclusive += child.inclusive_us;
    }
    node->exclusive_us = std::max(0.0, node->inclusive_us - child_inclusive);
}

void
WriteNodeJson(JsonWriter* w, const ProfileNode& node)
{
    w->BeginObject();
    w->Key("name").String(node.name);
    w->Key("calls").Number(node.calls);
    w->Key("inclusive_ms").Number(node.inclusive_us / 1000.0);
    w->Key("exclusive_ms").Number(node.exclusive_us / 1000.0);
    w->Key("children").BeginArray();
    for (const ProfileNode& child : node.children) {
        WriteNodeJson(w, child);
    }
    w->EndArray();
    w->EndObject();
}

void
CollectStacks(const ProfileNode& node, const std::string& prefix,
              std::vector<std::string>* lines)
{
    const std::string path =
        prefix.empty() ? node.name : prefix + ";" + node.name;
    const auto rounded =
        static_cast<uint64_t>(std::llround(node.exclusive_us));
    if (rounded > 0) {
        lines->push_back(path + " " + std::to_string(rounded));
    }
    for (const ProfileNode& child : node.children) {
        CollectStacks(child, path, lines);
    }
}

/** Prune @p node's subtree, keeping only nodes on @p live (the open
 *  frame stack) and zeroing the survivors' counters. */
void
PruneNode(FrameNode* node, const std::set<FrameNode*>& live)
{
    node->calls = 0;
    node->inclusive_us = 0.0;
    for (auto it = node->children.begin(); it != node->children.end();) {
        if (live.count(it->second.get())) {
            PruneNode(it->second.get(), live);
            ++it;
        } else {
            it = node->children.erase(it);
        }
    }
}

}  // namespace

namespace internal {

void
ProfilerEnter(const char* name)
{
    ThreadTree& tree = LocalTree();
    std::lock_guard<std::mutex> lock(tree.mu);
    FrameNode* parent = tree.stack.empty() ? &tree.root : tree.stack.back();
    auto& slot = parent->children[name];
    if (!slot) {
        slot = std::make_unique<FrameNode>();
        slot->name = name;
    }
    tree.stack.push_back(slot.get());
}

void
ProfilerExit(double dur_us)
{
    ThreadTree& tree = LocalTree();
    std::lock_guard<std::mutex> lock(tree.mu);
    if (tree.stack.empty()) {
        return;  // Unbalanced exit (cleared mid-span); drop the sample.
    }
    FrameNode* node = tree.stack.back();
    tree.stack.pop_back();
    node->calls += 1;
    node->inclusive_us += dur_us;
}

}  // namespace internal

void
SetProfilingEnabled(bool enabled)
{
    if (enabled && !ProfilingEnabled()) {
        ProfilerState& state = State();
        std::lock_guard<std::mutex> lock(state.mu);
        state.epoch = Clock::now();
    }
    internal::g_profiling.store(enabled);
    if (enabled) {
        // Frames are fed by ScopedSpan, which is inert while the metric
        // subsystem is off.
        SetEnabled(true);
    }
}

ProfileNode
ProfileSnapshot()
{
    ProfilerState& state = State();
    ProfileNode root;
    root.name = "process";
    root.calls = 1;
    std::lock_guard<std::mutex> lock(state.mu);
    root.inclusive_us = std::chrono::duration<double, std::micro>(
                            Clock::now() - state.epoch)
                            .count();
    for (ThreadTree* tree : state.trees) {
        std::lock_guard<std::mutex> tree_lock(tree->mu);
        for (const auto& [name, child] : tree->root.children) {
            auto it = std::find_if(
                root.children.begin(), root.children.end(),
                [&](const ProfileNode& n) { return n.name == name; });
            if (it == root.children.end()) {
                root.children.push_back(ProfileNode{name, 0, 0.0, 0.0, {}});
                it = std::prev(root.children.end());
            }
            MergeInto(&*it, *child);
        }
    }
    FinalizeNode(&root);
    return root;
}

std::string
ProfileJson()
{
    const ProfileNode root = ProfileSnapshot();
    size_t threads = 0;
    {
        ProfilerState& state = State();
        std::lock_guard<std::mutex> lock(state.mu);
        threads = state.trees.size();
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("xtalk.profile.v1");
    w.Key("enabled").Bool(ProfilingEnabled());
    w.Key("wall_ms").Number(root.inclusive_us / 1000.0);
    w.Key("threads").Number(static_cast<uint64_t>(threads));
    w.Key("root");
    WriteNodeJson(&w, root);
    w.EndObject();
    return w.str();
}

std::string
CollapsedStacks()
{
    const ProfileNode root = ProfileSnapshot();
    std::vector<std::string> lines;
    CollectStacks(root, "", &lines);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) {
        out += line;
        out += "\n";
    }
    return out;
}

void
ResetProfile()
{
    ProfilerState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    state.epoch = Clock::now();
    for (ThreadTree* tree : state.trees) {
        std::lock_guard<std::mutex> tree_lock(tree->mu);
        // Nodes on the open-frame stack stay alive (a live ScopedSpan
        // will still exit into them); everything else is dropped.
        const std::set<FrameNode*> live(tree->stack.begin(),
                                        tree->stack.end());
        PruneNode(&tree->root, live);
    }
}

bool
WriteProfileJson(const std::string& path, std::string* error)
{
    return WriteTextFile(path, ProfileJson() + "\n", error);
}

bool
WriteCollapsedStacks(const std::string& path, std::string* error)
{
    return WriteTextFile(path, CollapsedStacks(), error);
}

}  // namespace xtalk::telemetry
