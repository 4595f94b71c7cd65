/**
 * @file
 * Executor: the single entry point for running scheduled circuits.
 *
 * Everything that executes circuits — the crosstalk characterizer's
 * RB/SRB batches, the experiment drivers' tomography and grid sweeps,
 * and `xtalkc --simulate` — submits ExecutionRequests here instead of
 * driving a simulator directly. A request is a batch of independent
 * jobs {ScheduledCircuit, RunSpec, backend}; the executor parallelizes
 * at two levels on a fixed-size ThreadPool:
 *
 *  1. across the jobs of a batch, and
 *  2. across shot chunks *within* a trajectory job, when the job's
 *     RunSpec allows more than one chunk.
 *
 * Determinism: the chunk plan is a pure function of the RunSpec, and
 * chunk c of a job draws from Rng(DeriveSeed(job seed, c)) (chunk 0 of
 * a single-chunk job keeps the job seed itself, so a one-chunk
 * kStatevector job is bit-identical to a direct serial NoisySimulator
 * run). Chunk counts are merged in index order, and histogram merging
 * is commutative — so a request returns bit-identical ExecutionResults
 * for ANY thread count, including 1. See docs/PARALLELISM.md.
 *
 * Two kinds of work reach the pool. A trajectory job (kStatevector,
 * kStabilizer, or a kExact job that falls back) runs each chunk as its
 * own pool task on a fresh simulator. A kExact job whose measures are
 * all terminal builds its RunPlan once, on the submitting thread, and
 * runs as one pool task: it computes the outcome distribution, then
 * draws each chunk's shots from that chunk's seed in chunk order. Both
 * keep the same chunk plan, fault points and `exec.chunk` events.
 *
 * Concurrency contract: jobs only touch their own simulator instance
 * plus the shared const Device, so they need no locking. Submit()
 * blocks until every job of the batch has run to completion (nothing
 * stops a job early) and must not be called from a pool worker thread
 * (the blocked worker could deadlock the queue).
 */
#ifndef XTALK_RUNTIME_EXECUTOR_H
#define XTALK_RUNTIME_EXECUTOR_H

#include <memory>
#include <vector>

#include "circuit/schedule.h"
#include "device/device.h"
#include "runtime/thread_pool.h"
#include "sim/counts.h"
#include "sim/noisy_simulator.h"

namespace xtalk::runtime {

/** Which engine executes a job. */
enum class SimBackend {
    kStatevector,  ///< NoisySimulator trajectories (any gate set).
    kStabilizer,   ///< StabilizerSimulator (Clifford-only, much faster).
    /**
     * Shots drawn from the exact outcome distribution (ExactDistribution,
     * any gate set). A job with a mid-circuit measure, or whose widest
     * measured register k fails the cost test (2^k <= shots and
     * k <= 10, kMaxExactRegisterQubits), runs as kStatevector instead.
     */
    kExact,
};

/** One independent circuit execution within a batch. */
struct ExecutionJob {
    ScheduledCircuit schedule{1};
    /** Shot budget, chunk-parallelism bound; seed_override ignored
     *  (seeding always comes from `seed`). */
    RunSpec spec;
    /** Base seed; chunk streams derive from it via DeriveSeed. */
    uint64_t seed = 0x5EED;
    SimBackend backend = SimBackend::kExact;
    /** Noise toggles (the seed field inside is ignored). */
    NoisySimOptions noise;
    /**
     * Fault-injection site checked once per job (identity = the job
     * seed; see faults/faults.h). Empty = no per-job site. Producers
     * that own a recovery path set this — e.g. the characterizer tags
     * its SRB jobs "srb.run" so injected failures flow through its
     * retry/quarantine machinery.
     */
    std::string fault_site;
};

/** A batch of independent jobs submitted together. */
struct ExecutionRequest {
    std::vector<ExecutionJob> jobs;
    /**
     * false (default): the first job exception is rethrown after the
     * batch drains — all-or-nothing semantics. true: per-job failures
     * are captured in ExecutionResult::ok/error and Submit() returns
     * normally, so the caller can retry or quarantine individual jobs.
     */
    bool capture_job_errors = false;
};

/** Outcome + timing of one job. */
struct ExecutionResult {
    Counts counts;
    /** False when the job failed (capture_job_errors mode only). */
    bool ok = true;
    /** First failure message of the job ("" when ok). */
    std::string error;
    /** Wall time from batch dispatch to this job's last chunk, ms. */
    double wall_ms = 0.0;
    /** Sum of the job's chunk simulation times, ms (CPU-ish time). */
    double sim_ms = 0.0;
    /** Shot chunks the job was split into. */
    int chunks = 1;
};

/** Executor sizing. */
struct ExecutorOptions {
    /**
     * Worker threads: 0 = share the process-wide pool sized by
     * ThreadPool::DefaultThreadCount(); > 0 = private pool of exactly
     * that many workers.
     */
    int num_threads = 0;
};

/** Parallel circuit-execution facade bound to one device. */
class Executor {
  public:
    explicit Executor(const Device& device, ExecutorOptions options = {});

    /**
     * Execute every job of the request and return results in job
     * order. Blocks until the batch completes; rethrows the first job
     * exception after the batch drains. The jobs are only read, and
     * only until Submit returns, so the request is taken by reference:
     * a batch of large schedules is never copied to be run.
     */
    std::vector<ExecutionResult> Submit(const ExecutionRequest& request);

    /** Single-job convenience wrapper over Submit(). */
    ExecutionResult Run(ExecutionJob job);

    const Device& device() const { return *device_; }
    int num_threads() const { return pool_->num_threads(); }
    ThreadPool& pool() { return *pool_; }

    /**
     * Chunk plan for @p spec: per-chunk shot counts, deterministic in
     * the spec alone. No chunk is smaller than 64 shots (tiny chunks
     * waste their per-chunk simulator setup) unless the job is. Exposed
     * for tests.
     */
    static std::vector<int> ChunkShots(const RunSpec& spec);

  private:
    const Device* device_;
    std::shared_ptr<ThreadPool> pool_;
};

}  // namespace xtalk::runtime

#endif  // XTALK_RUNTIME_EXECUTOR_H
