/**
 * @file
 * The experiment queue: validated, deduped, batched execution of
 * ExperimentRequests on the shared worker pool.
 *
 * ExperimentService is the one boundary benches talk to.  Submitting a
 * batch replaces the hand-rolled cell loops the bench binaries used to
 * carry: the queue validates every request (fatal with a clean message,
 * like requirePolicyFactory), dedupes identical cells (two requests
 * with equal canonical JSON run once and share the result), warms the
 * per-workload shared state (capture, next-use index, oracle label
 * planes) in parallel, then fans the unique cells out on the
 * ParallelRunner.  ReplaySpec construction and capture-cache lookup
 * live behind this boundary; benches only see requests and results.
 *
 * The queue's CaptureCache handle is injected (BenchDriver passes the
 * process instance, casimd owns a resident one), so repeated batches
 * against the same queue reuse captured workloads from memory.
 *
 * runBatch() is safe to call from multiple threads (casimd's
 * connection handlers), and concurrent batches genuinely overlap:
 * instead of serializing on a global exec mutex, each batch acquires a
 * lease per capture identity it touches.  The first lease holder warms
 * the capture / next-use index / label planes once; later batches for
 * the same identity wait on that lease (not on the whole queue), while
 * batches over disjoint identities never wait at all.  Cells from all
 * in-flight batches fan out on the one shared ParallelRunner, results
 * stay bit-identical to serial execution, and a leased capture is
 * pinned in the CaptureCache so the resident byte budget can never
 * evict a bundle an in-flight batch is about to execute against.
 */

#ifndef CASIM_SIM_QUEUE_HH
#define CASIM_SIM_QUEUE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/stats.hh"
#include "sim/capture_cache.hh"
#include "sim/parallel.hh"
#include "sim/request.hh"

namespace casim {

/** Anything that can resolve experiment requests to results. */
class ExperimentService
{
  public:
    virtual ~ExperimentService() = default;

    /**
     * Execute a batch; slot i of the returned vector is the result of
     * requests[i].  Invalid requests are fatal with the request's
     * validate() message (the daemon validates before submitting and
     * turns the same message into an error reply instead).
     */
    virtual std::vector<ExperimentResult>
    runBatch(const std::vector<ExperimentRequest> &requests) = 0;

    /** Convenience wrapper for a single request. */
    ExperimentResult run(const ExperimentRequest &request);
};

/** The local service: validate, dedupe, warm, fan out, collect. */
class ExperimentQueue : public ExperimentService
{
  public:
    /**
     * @param cache  Capture store the cells load workloads through.
     * @param runner Worker pool the warm-up and the cells fan out on.
     */
    ExperimentQueue(CaptureCache &cache, ParallelRunner &runner);

    std::vector<ExperimentResult>
    runBatch(const std::vector<ExperimentRequest> &requests) override;

    /**
     * Queue counters: requests submitted / unique cells executed /
     * dedupe hits / batches run, plus the concurrency counters —
     * `concurrent_batches` (batches that overlapped another in-flight
     * batch), `lease_waits` (borrowed capture leases actually waited
     * on), `lease_warms` (cold capture warms performed under a lease)
     * and `lease_holders_max` (most concurrent holders of one lease) —
     * and the `in_flight` gauge.  All counters are atomic, so the
     * group can be rendered (e.g. by the casimd stats op) while
     * batches are executing.
     */
    const stats::StatGroup &stats() const { return group_; }

    /**
     * Block until no batch is executing and keep new batches out while
     * the returned lock is held.  Batches hold the exec lock shared;
     * this takes it exclusive, so a SIGTERM drain (or a stats flush at
     * exit) sees fully retired batches and untorn counters.
     */
    std::unique_lock<std::shared_mutex> quiesce()
    {
        return std::unique_lock<std::shared_mutex>(execMutex_);
    }

  private:
    /**
     * One in-flight capture identity.  The creating batch owns the
     * warm (`warming` set until it publishes `warmed`); later batches
     * borrow the lease, wait for `warmed` on the submitting thread and
     * then top up whatever extra label planes their own cells need.
     * The lease pins the identity in the CaptureCache for its whole
     * lifetime and is dropped when the last holder releases it.
     */
    struct CaptureLease
    {
        unsigned holders = 0;
        bool warming = false;
        bool warmed = false;
    };

    CaptureCache &cache_;
    ParallelRunner &runner_;

    /** Held shared by batches, exclusive by quiesce(). */
    std::shared_mutex execMutex_;

    /** Guards leases_ and every CaptureLease; leaseCv_ signals warms. */
    std::mutex leaseMutex_;
    std::condition_variable leaseCv_;
    std::map<std::uint64_t, std::shared_ptr<CaptureLease>> leases_;

    /** Batches currently inside runBatch() (feeds the gauge). */
    std::atomic<std::size_t> inFlight_{0};

    stats::StatGroup group_;
    stats::AtomicCounter &submitted_;
    stats::AtomicCounter &executed_;
    stats::AtomicCounter &dedupHits_;
    stats::AtomicCounter &batches_;
    stats::AtomicCounter &concurrentBatches_;
    stats::AtomicCounter &leaseWaits_;
    stats::AtomicCounter &leaseWarms_;
    stats::AtomicCounter &leaseHoldersMax_;
};

/**
 * Execute one validated request against an already captured workload.
 * This is the single place a request becomes a ReplaySpec (or a
 * recording/scoring run); `shard_runner` is forwarded to sharded
 * replays and may be the runner whose task is executing the cell
 * (the replay then stays unsharded, see ReplaySpec::shardRunner).
 */
ExperimentResult executeCell(const ExperimentRequest &request,
                             const CapturedWorkload &workload,
                             ParallelRunner *shard_runner);

} // namespace casim

#endif // CASIM_SIM_QUEUE_HH
