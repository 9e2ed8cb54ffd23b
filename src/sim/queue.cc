/**
 * @file
 * Implementation of the experiment queue and the cell executor.
 */

#include "sim/queue.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "core/awareness.hh"
#include "core/oracle.hh"
#include "core/predictor.hh"
#include "core/sharing_tracker.hh"
#include "mem/prefetcher.hh"
#include "mem/repl/factory.hh"
#include "sim/experiment.hh"
#include "sim/stream_sim.hh"
#include "wgen/registry.hh"

namespace casim {

ExperimentResult
ExperimentService::run(const ExperimentRequest &request)
{
    return runBatch({request}).front();
}

namespace {

/** Run a callable at scope exit (lease and gauge cleanup on every path). */
template <typename Fn>
struct ScopeExit
{
    Fn fn;
    ~ScopeExit() { fn(); }
};
template <typename Fn> ScopeExit(Fn) -> ScopeExit<Fn>;

/**
 * Feed per-block residency outcomes of a recorded baseline run to the
 * residency-replay labeler: a training labeler that labels nothing.
 */
class OutcomeRecorder : public FillLabeler
{
  public:
    explicit OutcomeRecorder(ResidencyReplayLabeler &labeler)
        : labeler_(labeler)
    {
    }

    bool
    predictShared(const ReplContext &fill) override
    {
        (void)fill;
        return false;
    }

    void
    train(const ResidencyOutcome &outcome) override
    {
        labeler_.recordOutcome(outcome.addr, outcome.shared());
    }

    bool trains() const override { return true; }
    std::string name() const override { return "outcome_recorder"; }

  private:
    ResidencyReplayLabeler &labeler_;
};

/** The normalized (window, near) label-plane pair a request's oracle
 * will query, following the OracleLabeler "0 means full window"
 * convention studyOracleWindows also applies. */
std::pair<SeqNo, SeqNo>
oraclePlanePair(const ExperimentRequest &request)
{
    const std::uint64_t bytes = request.effectiveLlcBytes();
    const SeqNo window = request.config.oracleWindow(bytes);
    const SeqNo raw_near = request.config.oracleNearWindow(bytes);
    return {window, raw_near == 0 ? window : raw_near};
}

/** Whether the cell queries the oracle (as labeler or as truth). */
bool
needsOracle(const ExperimentRequest &request)
{
    return request.labeler == "oracle" || request.evaluate;
}

/** Whether the cell's policy replays from the next-use index (OPT). */
bool
policyNeedsIndex(const ExperimentRequest &request)
{
    const auto desc = policyDesc(request.policy);
    return desc.has_value() && desc->needsNextUse;
}

/** Whether the cell touches the next-use index at all. */
bool
needsIndex(const ExperimentRequest &request)
{
    return policyNeedsIndex(request) || request.kind == "awareness" ||
           needsOracle(request);
}

/** Replay-kind execution: build the spec, compose labelers, run. */
void
executeReplay(const ExperimentRequest &request,
              const CapturedWorkload &workload,
              ParallelRunner *shard_runner, ExperimentResult &result)
{
    const StudyConfig &config = request.config;
    const std::uint64_t bytes = request.effectiveLlcBytes();

    ReplaySpec spec;
    spec.policy = request.policy;
    spec.geo = config.llcGeometry(bytes);
    spec.shards = request.effectiveShards();
    spec.shardRunner = shard_runner;
    if (policyNeedsIndex(request))
        spec.nextUse = &workload.nextUse();

    // Labeler composition mirrors what the benches used to hand-roll:
    // the concrete labeler, optionally wrapped by the evaluator scored
    // against the oracle truth.  All instances live on this frame for
    // the duration of the replay.
    std::unique_ptr<OracleLabeler> oracle;
    std::unique_ptr<ResidencyReplayLabeler> residency;
    std::unique_ptr<TableSharingPredictor> predictor;
    FillLabeler *labeler = nullptr;
    if (request.labeler == "oracle") {
        oracle = std::make_unique<OracleLabeler>(
            makeOracle(workload.nextUse(), config, bytes));
        labeler = oracle.get();
    } else if (request.labeler == "residency") {
        residency = std::make_unique<ResidencyReplayLabeler>();
        OutcomeRecorder recorder(*residency);
        StreamSim recording(workload.stream, spec.geo,
                            requirePolicyFactory("lru")(
                                spec.geo.numSets(), spec.geo.ways));
        recording.setLabeler(&recorder);
        recording.run();
        labeler = residency.get();
    } else if (request.labeler == "addr-pred") {
        predictor =
            std::make_unique<AddressSharingPredictor>(config.predictor);
        labeler = predictor.get();
    } else if (request.labeler == "pc-pred") {
        predictor =
            std::make_unique<PcSharingPredictor>(config.predictor);
        labeler = predictor.get();
    }

    std::unique_ptr<OracleLabeler> truth;
    std::unique_ptr<LabelerEvaluator> evaluated;
    if (request.evaluate) {
        truth = std::make_unique<OracleLabeler>(
            makeOracle(workload.nextUse(), config, bytes));
        evaluated =
            std::make_unique<LabelerEvaluator>(*labeler, truth.get());
        labeler = evaluated.get();
    }
    spec.labeler = labeler;
    if (labeler != nullptr)
        spec.config = &config;

    std::unique_ptr<StridePrefetcher> prefetcher;
    if (request.prefetch) {
        PrefetcherConfig pf_config;
        if (request.prefetchDegree != 0)
            pf_config.degree = request.prefetchDegree;
        prefetcher = std::make_unique<StridePrefetcher>(pf_config);
        spec.prefetcher = prefetcher.get();
    }

    if (request.kind == "sharing") {
        result.sharing = replaySharing(workload.stream, spec,
                                       config.workload.threads);
    } else {
        result.misses = replayMisses(workload.stream, spec);
    }

    if (evaluated != nullptr) {
        result.accuracy = evaluated->accuracy();
        result.precision = evaluated->precision();
        result.recall = evaluated->recall();
    }
    if (prefetcher != nullptr)
        result.prefetchAccuracy = prefetcher->accuracy();
}

/** Awareness-kind execution: replay scored by the oracle scorer. */
void
executeAwareness(const ExperimentRequest &request,
                 const CapturedWorkload &workload,
                 ExperimentResult &result)
{
    const StudyConfig &config = request.config;
    const std::uint64_t bytes = request.effectiveLlcBytes();
    const CacheGeometry geo = config.llcGeometry(bytes);
    const NextUseIndex &index = workload.nextUse();

    StreamSim sim(workload.stream, geo,
                  requirePolicyFactory(request.policy, &index)(
                      geo.numSets(), geo.ways));
    AwarenessScorer scorer(index, config.oracleWindow(bytes));
    sim.setAwarenessScorer(&scorer);
    sim.run();
    result.misses = sim.misses();
    result.mistakeRate = scorer.mistakeRate();
    result.sharedVictimRate = scorer.sharedVictimRate();
}

/** Capture-kind execution: capture-time numbers, no replay. */
void
executeCapture(const ExperimentRequest &request,
               const CapturedWorkload &workload,
               ExperimentResult &result)
{
    result.demandAccesses = workload.demandAccesses;
    result.footprintBlocks = workload.footprintBlocks;
    result.hierarchy = workload.hierarchy;
    if (request.traceProps) {
        // Trace-level properties need the original trace; regenerate
        // cheaply (generation is a small fraction of simulation).
        const Trace trace = makeWorkloadTrace(request.workload,
                                              request.config.workload);
        result.traceFootprintBlocks = trace.footprintBlocks();
        result.traceSharedFootprintBlocks =
            trace.sharedFootprintBlocks();
        result.writeFraction = trace.writeFraction();
    }
}

} // namespace

ExperimentResult
executeCell(const ExperimentRequest &request,
            const CapturedWorkload &workload,
            ParallelRunner *shard_runner)
{
    ExperimentResult result;
    result.streamRefs = workload.stream.size();
    if (request.kind == "capture")
        executeCapture(request, workload, result);
    else if (request.kind == "awareness")
        executeAwareness(request, workload, result);
    else
        executeReplay(request, workload, shard_runner, result);
    return result;
}

ExperimentQueue::ExperimentQueue(CaptureCache &cache,
                                 ParallelRunner &runner)
    : cache_(cache), runner_(runner), group_("queue"),
      submitted_(group_.addAtomicCounter(
          "submitted", "experiment requests submitted")),
      executed_(group_.addAtomicCounter("executed",
                                        "unique cells executed")),
      dedupHits_(group_.addAtomicCounter(
          "dedup_hits", "requests resolved by an identical cell in "
                        "the same batch")),
      batches_(group_.addAtomicCounter("batches", "batches run")),
      concurrentBatches_(group_.addAtomicCounter(
          "concurrent_batches",
          "batches that overlapped another in-flight batch")),
      leaseWaits_(group_.addAtomicCounter(
          "lease_waits",
          "borrowed capture leases waited on (warm in progress)")),
      leaseWarms_(group_.addAtomicCounter(
          "lease_warms", "cold capture warms performed under a lease")),
      leaseHoldersMax_(group_.addAtomicCounter(
          "lease_holders_max",
          "most concurrent holders of one capture lease"))
{
    group_.addFormula("in_flight",
                      "batches currently inside runBatch()", [this] {
                          return static_cast<double>(inFlight_.load());
                      });
}

std::vector<ExperimentResult>
ExperimentQueue::runBatch(const std::vector<ExperimentRequest> &requests)
{
    // Batches hold the exec lock shared — only quiesce() (drain,
    // stats flush) excludes them; other batches run concurrently.
    std::shared_lock<std::shared_mutex> exec(execMutex_);
    ++batches_;
    submitted_ += requests.size();
    if (inFlight_.fetch_add(1) + 1 > 1)
        ++concurrentBatches_;
    const ScopeExit gauge{[this] { inFlight_.fetch_sub(1); }};

    // Validate up front: a bad request from a bench is a programming
    // error and gets requirePolicyFactory's fatal treatment (the
    // daemon validates before submitting and replies with the same
    // message instead).
    for (const ExperimentRequest &request : requests)
        request.requireValid();

    // Dedupe on the canonical JSON: identical cells execute once.
    std::vector<std::size_t> slot_of;          // request -> unique cell
    std::vector<const ExperimentRequest *> unique;
    std::map<std::string, std::size_t> by_key;
    slot_of.reserve(requests.size());
    for (const ExperimentRequest &request : requests) {
        const auto [it, inserted] =
            by_key.emplace(request.toJson(), unique.size());
        if (inserted)
            unique.push_back(&request);
        else
            ++dedupHits_;
        slot_of.push_back(it->second);
    }
    executed_ += unique.size();

    // Warm planning: group the unique cells by capture identity,
    // collecting per identity whether the next-use index is needed and
    // which oracle label planes the cells will query — the
    // warmSharingOracle discipline, now per batch, so no replay cell
    // stalls on a build.
    struct WarmItem
    {
        const ExperimentRequest *request; // capture identity donor
        std::uint64_t hash = 0;
        bool index = false;
        std::vector<std::pair<SeqNo, SeqNo>> planes;
    };
    std::vector<WarmItem> warm;
    std::vector<std::size_t> warm_of(unique.size());
    std::map<std::uint64_t, std::size_t> warm_by_hash;
    for (std::size_t u = 0; u < unique.size(); ++u) {
        const ExperimentRequest &request = *unique[u];
        const std::uint64_t hash = captureConfigHash(
            request.workload, request.config.workload,
            captureHierarchyConfig(request.config));
        const auto [it, inserted] =
            warm_by_hash.emplace(hash, warm.size());
        if (inserted)
            warm.push_back({&request, hash, false, {}});
        WarmItem &item = warm[it->second];
        warm_of[u] = it->second;
        item.index = item.index || needsIndex(request);
        if (needsOracle(request)) {
            const auto pair = oraclePlanePair(request);
            if (std::find(item.planes.begin(), item.planes.end(),
                          pair) == item.planes.end())
                item.planes.push_back(pair);
        }
    }

    // Lease acquisition, on the submitting thread (never inside a pool
    // task — a task blocked on a lease would occupy the very worker
    // the warm it waits for needs).  The creator of a lease owns the
    // warm; everyone else borrows.  A fresh lease pins the identity in
    // the capture cache until the last holder releases it.
    std::vector<std::size_t> owned_items, borrowed_items;
    {
        std::lock_guard<std::mutex> lock(leaseMutex_);
        for (std::size_t i = 0; i < warm.size(); ++i) {
            std::shared_ptr<CaptureLease> &slot = leases_[warm[i].hash];
            if (slot == nullptr) {
                slot = std::make_shared<CaptureLease>();
                cache_.pinResident(warm[i].hash);
            }
            ++slot->holders;
            leaseHoldersMax_.noteMax(slot->holders);
            if (!slot->warming && !slot->warmed) {
                slot->warming = true;
                owned_items.push_back(i);
            } else {
                borrowed_items.push_back(i);
            }
        }
    }
    const ScopeExit lease_release{[&] {
        std::vector<std::uint64_t> unpin;
        {
            std::lock_guard<std::mutex> lock(leaseMutex_);
            for (const WarmItem &item : warm) {
                const auto it = leases_.find(item.hash);
                if (--it->second->holders == 0) {
                    leases_.erase(it);
                    unpin.push_back(item.hash);
                }
            }
        }
        for (const std::uint64_t hash : unpin)
            cache_.unpinResident(hash);
    }};

    // Warms the capture (counting cold ones), then the index and label
    // planes the batch's cells need; every layer is memoized, so the
    // borrowed top-up below only pays for planes the owner didn't
    // build.
    std::vector<std::shared_ptr<const CapturedWorkload>> captured(
        warm.size());
    const auto warm_one = [&](std::size_t i) {
        const WarmItem &item = warm[i];
        bool cold = false;
        captured[i] = cache_.capture(item.request->workload,
                                     item.request->config, &cold);
        if (cold)
            ++leaseWarms_;
        if (!item.index && item.planes.empty())
            return;
        captured[i]->nextUse().labelPlanes(item.planes);
    };

    // Warm phase: one pool task per identity this batch owns the lease
    // warm of.
    runner_.run(owned_items.size(), [&](std::size_t k) {
        const std::size_t i = owned_items[k];
        // Publish even if the warm throws, so borrowers unblock; their
        // own capture() retries and reports the same failure.
        const ScopeExit publish{[&] {
            std::lock_guard<std::mutex> lock(leaseMutex_);
            CaptureLease &lease = *leases_.at(warm[i].hash);
            lease.warming = false;
            lease.warmed = true;
            leaseCv_.notify_all();
        }};
        warm_one(i);
    });

    // Wait for the borrowed identities' owners to publish — again on
    // the submitting thread, so pool workers stay busy with real work.
    for (const std::size_t i : borrowed_items) {
        std::unique_lock<std::mutex> lock(leaseMutex_);
        CaptureLease &lease = *leases_.at(warm[i].hash);
        if (!lease.warmed) {
            ++leaseWaits_;
            leaseCv_.wait(lock, [&lease] { return lease.warmed; });
        }
    }

    // Top-up phase: adopt the borrowed captures (memoized) and build
    // any extra label planes this batch's cells query.
    runner_.run(borrowed_items.size(), [&](std::size_t k) {
        warm_one(borrowed_items[k]);
    });

    // Execution phase: one runner task per unique cell.  A cell of a
    // multi-cell batch is one of the runner's own tasks, so it replays
    // unsharded; a single cell runs on this thread and fans its shards
    // out on the pool.
    const auto unique_results = runner_.map<ExperimentResult>(
        unique.size(), [&](std::size_t u) {
            return executeCell(*unique[u], *captured[warm_of[u]],
                               &runner_);
        });

    std::vector<ExperimentResult> results;
    results.reserve(requests.size());
    for (const std::size_t u : slot_of)
        results.push_back(unique_results[u]);
    return results;
}

} // namespace casim
