/**
 * @file
 * The traced replay: the same request stream, served by calling each
 * layer's public functions from here, in the engine's order, with a span
 * around every call. Spans live in memory until the run ends.
 */
#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "characterization/characterizer.h"

namespace perfbench {

/** One timed call: spans of one request share `request`. */
struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /** Index of the enclosing span in the same thread's list; -1 = root. */
    int parent = -1;
    uint64_t request = 0;
};

/** Everything the replay measured; vectors hold one entry per call. */
struct TracedResult {
    long attempted = 0;
    long failed = 0;
    /** Byte-equality or decoding failures, one line each. */
    std::vector<std::string> problems;
    /** Whole-request latency (the root span), ms. */
    std::vector<double> request_ms;
    /** Span self time (duration minus child spans), ms, by span name. */
    std::map<std::string, std::vector<double>> self_ms;
    /** Span duration including children, ms, by span name. */
    std::map<std::string, std::vector<double>> total_ms;
    std::vector<double> gates_in;
    std::vector<double> swaps_added;
    std::vector<double> degraded;
    std::vector<double> chunks;
    std::vector<double> parallel_efficiency;
    std::vector<double> us_per_shot;
    /** Characterization: per request on charz_cold, else the set-up one. */
    std::vector<double> charz_plan_ms;
    std::vector<double> charz_run_ms;
    std::vector<double> charz_cpu_s;
    std::vector<double> charz_experiments;
    /** The schedule pass on each distinct circuit, one at a time. */
    std::vector<double> solo_schedule_ms;
};

class TracedReplay {
  public:
    /** @p references are the untraced run's outputs, by pool index. */
    TracedReplay(const Workload& workload,
                 const std::vector<PoolRequest>& pool,
                 const std::vector<Reference>& references);
    ~TracedReplay();
    TracedReplay(const TracedReplay&) = delete;
    TracedReplay& operator=(const TracedReplay&) = delete;

    /** Measure the warm snapshot (if the workload uses one) and the
     *  schedule pass on every distinct circuit alone; nothing on a
     *  fresh-engine workload. */
    void Setup();
    /** Closed loop for @p seconds at the workload's client count. */
    TracedResult Run(double seconds);
    /** Write the spans of the first few thousand requests as JSON lines
     *  to @p path (the metrics cover all of them). */
    bool WriteSpans(const std::string& path) const;

  private:
    class Recorder;

    void ReplayOne(size_t index, uint64_t request_id, Recorder& recorder,
                   TracedResult* out) const;

    const Workload& workload_;
    const std::vector<PoolRequest>& pool_;
    const std::vector<Reference>& references_;
    /** The warm snapshot, measured once in Setup(); unset on charz_cold
     *  and on workloads that need no characterization. */
    std::unique_ptr<xtalk::CrosstalkCharacterization> snapshot_;
    TracedResult setup_;
    std::vector<std::unique_ptr<Recorder>> recorders_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H
