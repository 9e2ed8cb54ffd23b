/**
 * @file
 * Implementation of the shared experiment toolkit.
 */

#include "sim/experiment.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/sharing_aware.hh"
#include "mem/repl/factory.hh"
#include "sim/capture_cache.hh"
#include "sim/sharded_sim.hh"
#include "sim/stream_sim.hh"

namespace casim {

const NextUseIndex &
CapturedWorkload::nextUse(const IndexFanout &fanout) const
{
    std::call_once(lazyIndex_->once, [this, &fanout] {
        if (nextUseAux != nullptr && nextUseAux->nextUse != nullptr &&
            nextUseAux->count == stream.size()) {
            // Zero-copy adoption: the chain and plane codes stay where
            // the view points (an mmap'd bundle or an owned aux); the
            // index pins the view, the view pins the storage.
            std::vector<NextUseIndex::LabelPlane> planes;
            planes.reserve(nextUseAux->planes.size());
            for (const CaptureAuxView::Plane &plane :
                 nextUseAux->planes)
                planes.push_back({plane.window, plane.nearWindow,
                                  plane.codes, stream.size()});
            lazyIndex_->index = std::make_unique<NextUseIndex>(
                stream, nextUseAux->nextUse, stream.size(),
                std::move(planes), nextUseAux);
        } else {
            lazyIndex_->index =
                std::make_unique<NextUseIndex>(stream, fanout);
        }
    });
    return *lazyIndex_->index;
}

HierarchyConfig
captureHierarchyConfig(const StudyConfig &config)
{
    HierarchyConfig hier = config.hierarchy;
    hier.numCores = config.workload.threads;
    hier.llc = config.llcGeometry(config.llcSmallBytes);
    return hier;
}

namespace {

/** The always-correct slow path: generate, simulate, capture. */
CapturedWorkload
captureWorkloadFresh(const std::string &name, const StudyConfig &config,
                     const HierarchyConfig &hier)
{
    CapturedWorkload captured;
    captured.info = workloadInfo(name);

    const Trace trace = makeWorkloadTrace(name, config.workload);
    captured.demandAccesses = trace.size();
    captured.footprintBlocks = trace.footprintBlocks();

    captured.stream = Trace(name + ".llc", config.workload.threads);
    captured.hierarchy = runHierarchy(trace, hier,
                                      requirePolicyFactory("lru"),
                                      &captured.stream);
    return captured;
}

/**
 * The precomputed next-use data a bundle persists: the chain plus one
 * label plane per studied oracle window.  Building it forces the
 * capture's memoized index, so the current process reuses the same
 * work the bundle saves for future ones.
 */
CaptureAux
buildCaptureAux(const CapturedWorkload &captured,
                const StudyConfig &config)
{
    CaptureAux aux;
    const NextUseIndex &index = captured.nextUse();
    aux.nextUse.assign(index.chainData(),
                       index.chainData() + index.size());
    for (const NextUseIndex::LabelPlane *plane :
         index.labelPlanes(studyOracleWindows(config))) {
        aux.planes.push_back(
            {plane->window, plane->nearWindow,
             std::vector<std::uint8_t>(plane->codes.begin(),
                                       plane->codes.end())});
    }
    return aux;
}

} // namespace

std::vector<std::pair<SeqNo, SeqNo>>
studyOracleWindows(const StudyConfig &config)
{
    std::vector<std::pair<SeqNo, SeqNo>> pairs;
    for (const std::uint64_t bytes :
         {config.llcSmallBytes, config.llcLargeBytes}) {
        const SeqNo window = config.oracleWindow(bytes);
        const SeqNo raw_near = config.oracleNearWindow(bytes);
        const auto pair = std::make_pair(
            window, raw_near == 0 ? window : raw_near);
        if (std::find(pairs.begin(), pairs.end(), pair) == pairs.end())
            pairs.push_back(pair);
    }
    return pairs;
}

CapturedWorkload
captureWorkload(const std::string &name, const StudyConfig &config,
                CaptureCache &cache)
{
    const HierarchyConfig hier = captureHierarchyConfig(config);
    if (config.captureDir.empty())
        return captureWorkloadFresh(name, config, hier);

    const std::uint64_t hash =
        captureConfigHash(name, config.workload, hier);
    const std::string path =
        captureCachePath(config.captureDir, name, hash);

    CapturedWorkload captured;
    std::string why;
    if (cache.load(path, hash, captured, &why)) {
        // The bundle carries only what a capture computes; the static
        // workload description is re-resolved on every load.
        captured.info = workloadInfo(name);
        return captured;
    }
    if (why != "cannot open")
        casim_warn("capture cache: ignoring bundle ", path, " (", why,
                   "); regenerating capture");

    captured = captureWorkloadFresh(name, config, hier);
    const CaptureAux aux = buildCaptureAux(captured, config);
    if (!cache.save(path, hash, captured, &aux))
        casim_warn("capture cache: cannot save '", path,
                   "', continuing uncached");
    return captured;
}

std::vector<CapturedWorkload>
captureAllWorkloads(const StudyConfig &config, CaptureCache &cache)
{
    std::vector<CapturedWorkload> captured;
    for (const auto &info : allWorkloads())
        captured.push_back(captureWorkload(info.name, config, cache));
    return captured;
}

std::vector<CapturedWorkload>
captureAllWorkloads(const StudyConfig &config, CaptureCache &cache,
                    ParallelRunner &runner)
{
    const auto infos = allWorkloads();
    return runner.map<CapturedWorkload>(
        infos.size(), [&](std::size_t i) {
            return captureWorkload(infos[i].name, config, cache);
        });
}

namespace {

/** Build the (possibly wrapped) replacement policy a spec describes. */
std::unique_ptr<ReplPolicy>
makeReplayPolicy(const ReplaySpec &spec)
{
    std::unique_ptr<ReplPolicy> base = requirePolicyFactory(
        spec.policy, spec.nextUse)(spec.geo.numSets(), spec.geo.ways);
    if (spec.labeler == nullptr)
        return base;
    casim_assert(spec.config != nullptr,
                 "ReplaySpec: a labeler needs the study config for the "
                 "wrapper's protection budgets");
    const StudyConfig &config = *spec.config;
    return std::make_unique<SharingAwareWrapper>(
        std::move(base), config.protectionRounds,
        config.postShareRounds, config.protectionQuota,
        config.dueling);
}

// Attach the spec's hooks to a StreamSim constructed in place.
void
applySpec(StreamSim &sim, const ReplaySpec &spec)
{
    sim.setLabeler(spec.labeler);
    sim.setPrefetcher(spec.prefetcher);
}

/**
 * The shard count a spec actually replays with.  Sharding engages only
 * when the sharded engine reproduces the serial result exactly: more
 * than one shard requested, no labeler or prefetcher attached, and a
 * policy whose state is per-set (PolicyDesc::perSetState).  Everything
 * else falls back to 1 — counted so a study can see how much of its
 * grid stayed serial.  A shardable spec also replays with 1 when its
 * shards would run inline: split but serial, it would only walk the
 * stream K times.  The requested count must be a power of two; counts
 * above the set count clamp down to it.
 */
unsigned
effectiveShards(const ReplaySpec &spec)
{
    if (spec.shards <= 1)
        return 1;
    casim_assert(isPowerOf2(spec.shards),
                 "ReplaySpec: shard count ", spec.shards,
                 " is not a power of two");
    const auto desc = policyDesc(spec.policy);
    const bool shardable = spec.labeler == nullptr &&
                           spec.prefetcher == nullptr &&
                           desc.has_value() && desc->perSetState;
    if (!shardable) {
        noteShardedReplayFallback();
        return 1;
    }
    if (spec.shardRunner == nullptr || spec.shardRunner->runsInline()) {
        noteShardedReplayInline();
        return 1;
    }
    return std::min<unsigned>(spec.shards, spec.geo.numSets());
}

} // namespace

std::uint64_t
replayMisses(const Trace &stream, const ReplaySpec &spec)
{
    const unsigned shards = effectiveShards(spec);
    if (shards > 1) {
        // OPT's per-shard policies share the spec's index: sharded
        // replay preserves global stream positions.
        ShardedStreamSim sharded(
            stream, spec.geo, shards,
            requirePolicyFactory(spec.policy, spec.nextUse));
        sharded.run(spec.shardRunner);
        return sharded.misses();
    }
    StreamSim sim(stream, spec.geo, makeReplayPolicy(spec));
    applySpec(sim, spec);
    sim.run();
    return sim.misses();
}

OracleLabeler
makeOracle(const NextUseIndex &index, const StudyConfig &config,
           std::uint64_t llc_bytes)
{
    return OracleLabeler(index, config.oracleWindow(llc_bytes),
                         config.oracleNearWindow(llc_bytes));
}

void
warmSharingOracle(const std::vector<CapturedWorkload> &captured,
                  const StudyConfig &config, ParallelRunner &runner)
{
    const auto pairs = studyOracleWindows(config);
    if (captured.size() >= runner.jobs()) {
        // Plenty of workloads: one warm-up task each, exactly the
        // granularity of the replay cells that follow.
        runner.run(captured.size(), [&](std::size_t i) {
            captured[i].nextUse().labelPlanes(pairs);
        });
        return;
    }

    // Fewer workloads than workers: keep the pool busy by fanning each
    // build's block-sharded phases out instead.  This must stay at top
    // level — ParallelRunner::run does not nest.
    const IndexFanout fanout =
        [&runner](std::size_t n,
                  const std::function<void(std::size_t)> &task) {
            runner.run(n, task);
        };
    for (const CapturedWorkload &wl : captured)
        wl.nextUse(fanout).labelPlanes(pairs, fanout);
}

SharingSummary
replaySharing(const Trace &stream, const ReplaySpec &spec,
              unsigned num_cores)
{
    StreamSim sim(stream, spec.geo, makeReplayPolicy(spec));
    applySpec(sim, spec);
    SharingTracker tracker(num_cores);
    sim.setSharingTracker(&tracker);
    sim.run();
    return SharingSummary::from(tracker, num_cores);
}

} // namespace casim
