/**
 * @file
 * Implementation of the deterministic parallel runner.
 */

#include "sim/parallel.hh"

#include <algorithm>

#include "common/timer.hh"

namespace casim {

namespace {

/**
 * The runner whose batch the current thread is executing a task of,
 * if any.  run() consults it to detect re-entry: a nested fan-out
 * would block this worker on its own pool (deadlocking once every
 * worker does it), so nested calls execute inline instead.
 */
thread_local const ParallelRunner *tls_active_runner = nullptr;

} // namespace

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs == 0 ? 1 : jobs), stats_("runner"),
      tasks_(stats_.addCounter("tasks", "simulation cells executed")),
      batches_(stats_.addCounter("batches", "run() fan-outs issued")),
      reentries_(stats_.addCounter(
          "reentries", "nested run() calls executed inline")),
      taskSeconds_(stats_.addDistribution(
            "task_seconds", "wall time of each simulation cell"))
{
    stats_.addFormula("jobs", "worker count",
                      [this] { return static_cast<double>(jobs_); });
    stats_.addFormula("max_queue_depth",
                      "deepest job queue observed", [this] {
                          return static_cast<double>(maxQueueDepth_);
                      });
    if (jobs_ == 1)
        return; // serial mode: never touch threading machinery
    workers_.reserve(jobs_);
    for (unsigned w = 0; w < jobs_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ParallelRunner::~ParallelRunner()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ParallelRunner::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        PhaseTimer timer;
        tls_active_runner = this;
        job.fn();
        tls_active_runner = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            taskSeconds_.sample(timer.seconds());
            ++tasks_;
            if (--job.batch->pending == 0)
                batchDone_.notify_all();
        }
    }
}

void
ParallelRunner::runInline(std::size_t n,
                          const std::function<void(std::size_t)> &task)
{
    // Same semantics as the parallel path: drain every task, keep the
    // first exception, rethrow once the batch is done.  Stats updates
    // take the queue mutex because workers of an outer batch may be
    // sampling concurrently when this is a re-entrant call.
    std::exception_ptr first_error;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++batches_;
    }
    for (std::size_t i = 0; i < n; ++i) {
        PhaseTimer timer;
        try {
            task(i);
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        taskSeconds_.sample(timer.seconds());
        ++tasks_;
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

bool
ParallelRunner::runsInline() const
{
    // From inside one of our own tasks, blocking this worker on the
    // pool could deadlock it, so nested batches execute in place.
    return jobs_ == 1 || tls_active_runner == this;
}

void
ParallelRunner::run(std::size_t n,
                    const std::function<void(std::size_t)> &task)
{
    if (n == 0)
        return;
    if (tls_active_runner == this) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++reentries_;
    }
    if (runsInline() || n == 1) {
        // The serial code path: inline on the caller, in index order.
        runInline(n, task);
        return;
    }

    // Each run() owns a Batch record shared with its queued jobs, so
    // concurrent top-level callers interleave on the one pool without
    // touching each other's completion accounting or error slot.
    auto batch = std::make_shared<Batch>();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++batches_;
        batch->pending = n;
        for (std::size_t i = 0; i < n; ++i) {
            queue_.push_back({[this, batch, &task, i] {
                                  try {
                                      task(i);
                                  } catch (...) {
                                      std::lock_guard<std::mutex> guard(
                                          mutex_);
                                      if (!batch->firstError)
                                          batch->firstError =
                                              std::current_exception();
                                  }
                              },
                              batch});
        }
        maxQueueDepth_ = std::max(maxQueueDepth_, queue_.size());
    }
    workReady_.notify_all();

    std::unique_lock<std::mutex> lock(mutex_);
    batchDone_.wait(lock, [&batch] { return batch->pending == 0; });
    if (batch->firstError)
        std::rethrow_exception(batch->firstError);
}

} // namespace casim
