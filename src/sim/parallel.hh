/**
 * @file
 * Deterministic parallel fan-out of independent simulation cells.
 *
 * Every bench binary sweeps a grid of (workload, policy, capacity)
 * cells, and each cell owns its whole simulation state (StreamSim,
 * Cache, policy instance), so the cells are embarrassingly parallel.
 * ParallelRunner is the one concurrency primitive the experiment layer
 * uses: a fixed-size worker pool with a job queue that executes indexed
 * tasks and collects their results into deterministically ordered
 * slots, making parallel output bit-identical to the serial path
 * regardless of scheduling.
 *
 * Isolation rule: a task must only touch state it owns (plus read-only
 * shared inputs such as captured traces and next-use indices).  Nothing
 * in the simulator uses mutable global state, so this rule is purely
 * local to the task lambdas the benches write.
 */

#ifndef CASIM_SIM_PARALLEL_HH
#define CASIM_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.hh"

namespace casim {

/** Fixed-size worker pool executing indexed tasks deterministically. */
class ParallelRunner
{
  public:
    /**
     * @param jobs Worker count; 0 and 1 both mean "no threads": tasks
     *             run inline on the caller in index order, which is the
     *             exact serial code path.
     */
    explicit ParallelRunner(unsigned jobs);

    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Worker count this runner executes with (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Execute task(0) ... task(n-1), each exactly once, and return when
     * all have finished.  With jobs() == 1 the tasks run inline in
     * index order; otherwise they are fanned out to the pool and may
     * run in any order, so tasks must be independent (see the isolation
     * rule above).  Every path drains the whole batch and rethrows the
     * first task exception afterwards, so `tasks`/`task_seconds` stats
     * are consistent across jobs values and the runner stays reusable.
     *
     * Concurrent top-level calls are safe: every run() owns its own
     * batch accounting (a heap-allocated pending/first-error record the
     * queued jobs share), so independent callers — e.g. casimd
     * connection threads executing overlapping experiment batches —
     * interleave their jobs on one pool, each returning when its own
     * batch drains and rethrowing only its own batch's first exception.
     *
     * Nesting is also safe: a task that calls run() on its own runner
     * is detected through a thread-local marker and executed inline on
     * the worker, because a worker blocking on its own pool would
     * deadlock it.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &task);

    /**
     * True iff a run() issued from the calling thread would execute
     * its tasks inline, one after another: the runner has one job, or
     * the caller is one of this runner's own tasks.  run() decides by
     * this predicate, so a caller can ask before splitting work that
     * only pays off when the pieces run concurrently.
     */
    bool runsInline() const;

    /**
     * Map fn over [0, n), collecting results into slot i of the
     * returned vector — deterministically ordered regardless of which
     * worker computed which cell.  Result must be default-constructible
     * and movable.
     */
    template <typename Result>
    std::vector<Result>
    map(std::size_t n, const std::function<Result(std::size_t)> &fn)
    {
        std::vector<Result> out(n);
        run(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Execution counters: batches and tasks run, per-task wall time,
     * the worker count and the deepest queue observed.  Counter and
     * distribution updates are serialized on the queue mutex; read the
     * values after the runs of interest have completed.
     */
    const stats::StatGroup &stats() const { return stats_; }

  private:
    /**
     * Accounting one run() call owns: the undone-task count and the
     * first exception of that batch.  Heap-allocated and shared between
     * the caller and its queued jobs so concurrent top-level run()
     * calls never touch each other's state; all fields are guarded by
     * the runner mutex.
     */
    struct Batch
    {
        std::size_t pending = 0;
        std::exception_ptr firstError;
    };

    /** One queued task plus the batch it retires into. */
    struct Job
    {
        std::function<void()> fn;
        std::shared_ptr<Batch> batch;
    };

    /** Worker main loop: pop jobs until asked to stop. */
    void workerLoop();

    /**
     * Execute a whole batch inline on the calling thread with the
     * parallel path's semantics: drain every task, collect the first
     * exception, sample per-task stats, rethrow at the end.  Used for
     * jobs()==1, single-task batches, and re-entrant run() calls.
     */
    void runInline(std::size_t n,
                   const std::function<void(std::size_t)> &task);

    unsigned jobs_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable batchDone_;
    std::deque<Job> queue_;
    std::size_t maxQueueDepth_ = 0;
    bool stopping_ = false;

    stats::StatGroup stats_;
    stats::Counter &tasks_;
    stats::Counter &batches_;
    stats::Counter &reentries_;
    stats::Distribution &taskSeconds_;
};

} // namespace casim

#endif // CASIM_SIM_PARALLEL_HH
