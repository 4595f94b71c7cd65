/**
 * @file
 * Types shared by the untraced load run and the traced replay.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "service/api.h"
#include "stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
MsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** One workload: a traffic mix, its client count and its front end. */
struct Workload {
    std::string name;
    /** Closed-loop clients (threads, or connections to the daemon). */
    int clients = 1;
    /** A fresh Engine per request, so every request characterizes. */
    bool fresh_engine = false;
    /** Serve through a spawned xtalkd instead of an in-process Engine. */
    bool daemon = false;
    PoolKind pool = PoolKind::kPaper;
    /** Instances of each shape in the pool of distinct requests. */
    int copies = 1;
    /** Seeded qubit labels (routing work under a trivial layout). */
    bool shuffle_labels = false;
    std::string scheduler = "xtalk";
    std::string layout = "noise-aware";
    int shots = 0;
};

/** One distinct request of a workload's pool. */
struct PoolRequest {
    xtalk::service::ServiceRequest request;
    /** The request's wire line (what the daemon receives). */
    std::string wire;
    StreamCircuit circuit;
};

/** What the untraced run saw for one distinct request, first time. */
struct Reference {
    bool set = false;
    /** ServiceResponse::ToJson(false): the deterministic projection. */
    std::string projection;
    std::string qasm;
    std::string counts;
    double success_probability = 0.0;
};

/** Linear-interpolated percentile (0..100) of @p values; 0 if empty. */
inline double
Percentile(std::vector<double> values, double pct)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

inline double
Mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (double v : values) {
        sum += v;
    }
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
