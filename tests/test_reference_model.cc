/**
 * @file
 * Cross-validation of the simulator against independent reference
 * models: a from-first-principles set-associative LRU simulator (kept
 * deliberately naive — std::list based — so it shares no code or
 * structure with the production cache), and closed-form miss counts
 * for analytically tractable access patterns.
 *
 * FigureGeometryLru runs the reference LRU against StreamSim on every
 * workload's captured stream at the figures' two LLC geometries, and
 * again on streams that went through a saved bundle.
 *
 * The reference LRU also keeps each residency's touched cores, hits,
 * stores and fill PC, so ReferenceResidency checks what a replay
 * reports of its ended residencies — the SharingTracker's summary and
 * the outcomes a training labeler learns from — against it.
 *
 * ReferenceInsertion checks the LRU-based insertion policies (DIP,
 * TADIP-F), which keep LRU's recency stamps with a second clock for
 * LRU-end inserts, against the explicit recency list they used to keep:
 * victim for victim on random event streams, and miss for miss on
 * replays driven by the same set-dueling decisions.
 */

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <list>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/rng.hh"
#include "core/oracle.hh"
#include "core/sharing_tracker.hh"
#include "mem/repl/dip.hh"
#include "mem/repl/duel.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/opt.hh"
#include "mem/repl/thread_aware.hh"
#include "sim/capture_cache.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/hierarchy_sim.hh"
#include "sim/stream_sim.hh"
#include "trace/trace_io.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

/** One LLC residency as the reference model keeps it. */
struct RefResidency
{
    Addr addr = 0;
    PC fillPC = 0;
    std::uint64_t touched = 0;
    std::uint64_t hits = 0;
    bool written = false;

    auto
    key() const
    {
        return std::tie(addr, fillPC, touched, hits, written);
    }
};

/**
 * Naive reference LRU cache: one std::list of residencies per set,
 * most recent first.  Every residency that ends — by eviction, or by
 * finish() at the end of the stream — is appended to ended().
 */
class ReferenceLru
{
  public:
    ReferenceLru(unsigned num_sets, unsigned ways)
        : numSets_(num_sets), ways_(ways), sets_(num_sets)
    {
    }

    /** Access one reference; returns true on hit. */
    bool
    access(const MemAccess &access)
    {
        const Addr block_addr = access.blockAddr();
        const unsigned set = static_cast<unsigned>(
            (block_addr / kBlockBytes) % numSets_);
        auto &lru = sets_[set];
        const std::uint64_t core = std::uint64_t{1} << access.core;
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (it->addr == block_addr) {
                RefResidency entry = *it;
                entry.touched |= core;
                entry.hits += 1;
                entry.written = entry.written || access.isWrite;
                lru.erase(it);
                lru.push_front(entry);
                return true;
            }
        }
        lru.push_front({block_addr, access.pc, core, 0, access.isWrite});
        if (lru.size() > ways_) {
            ended_.push_back(lru.back());
            lru.pop_back();
        }
        return false;
    }

    /** End every residency still resident. */
    void
    finish()
    {
        for (auto &lru : sets_) {
            ended_.insert(ended_.end(), lru.begin(), lru.end());
            lru.clear();
        }
    }

    /** Every residency ended so far. */
    const std::vector<RefResidency> &ended() const { return ended_; }

  private:
    unsigned numSets_;
    unsigned ways_;
    std::vector<std::list<RefResidency>> sets_;
    std::vector<RefResidency> ended_;
};

TEST(ReferenceModel, LruMatchesOnRandomStreams)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Trace trace("ref", 4);
        for (int i = 0; i < 50000; ++i)
            trace.append(rng.below(1024) * kBlockBytes,
                         0x400 + rng.below(8),
                         static_cast<CoreId>(rng.below(4)),
                         rng.chance(0.3));

        const CacheGeometry geo{32 * 1024, 8, kBlockBytes};
        StreamSim sim(trace, geo,
                      requirePolicyFactory("lru")(geo.numSets(),
                                               geo.ways));
        sim.run();

        ReferenceLru reference(geo.numSets(), geo.ways);
        std::uint64_t ref_misses = 0;
        for (const auto &access : trace)
            ref_misses += reference.access(access) ? 0 : 1;

        ASSERT_EQ(sim.misses(), ref_misses) << "seed " << seed;
    }
}

TEST(ReferenceModel, LruMatchesOnGeneratedWorkload)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.03;
    params.seed = 12;
    const Trace trace = makeWorkloadTrace("ocean", params);

    const CacheGeometry geo{64 * 1024, 4, kBlockBytes};
    StreamSim sim(trace, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();

    ReferenceLru reference(geo.numSets(), geo.ways);
    std::uint64_t ref_misses = 0;
    for (const auto &access : trace)
        ref_misses += reference.access(access) ? 0 : 1;
    EXPECT_EQ(sim.misses(), ref_misses);
}

TEST(ReferenceModel, CyclicScanClosedForm)
{
    // Scanning N blocks cyclically through a fully-utilised LRU cache
    // of capacity C < N (all one set) misses on every reference.
    const unsigned ways = 8;
    const unsigned blocks = 12;
    Trace trace("scan", 1);
    for (int pass = 0; pass < 10; ++pass)
        for (unsigned b = 0; b < blocks; ++b)
            trace.append(static_cast<Addr>(b) * kBlockBytes, 0x400, 0,
                         false);
    const CacheGeometry geo{ways * kBlockBytes, ways, kBlockBytes};
    StreamSim sim(trace, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();
    EXPECT_EQ(sim.misses(), trace.size());
}

TEST(ReferenceModel, CyclicScanOptAnalyticBounds)
{
    // Under OPT a cyclic scan of N blocks through a C-way cache costs
    // at least N - C new blocks per pass (information-theoretic lower
    // bound: a miss can pre-empt at most one future miss) and far
    // fewer than LRU's every-reference miss.
    const unsigned ways = 8;
    const unsigned blocks = 12;
    const int passes = 10;
    Trace trace("scan", 1);
    for (int pass = 0; pass < passes; ++pass)
        for (unsigned b = 0; b < blocks; ++b)
            trace.append(static_cast<Addr>(b) * kBlockBytes, 0x400, 0,
                         false);
    const CacheGeometry geo{ways * kBlockBytes, ways, kBlockBytes};
    const NextUseIndex index(trace);
    StreamSim sim(trace, geo,
                  std::make_unique<OptPolicy>(geo.numSets(), geo.ways,
                                              index));
    sim.run();
    const std::uint64_t lower =
        blocks + (passes - 1) * (blocks - ways);
    // Steady state approaches (N - C) / (N - 1) misses per reference.
    const auto steady = static_cast<std::uint64_t>(
        blocks + 1.10 * (passes - 1) * blocks *
                     (blocks - ways) / (blocks - 1.0));
    EXPECT_GE(sim.misses(), lower);
    EXPECT_LE(sim.misses(), steady);
    EXPECT_LT(sim.misses(), trace.size() / 2); // far below LRU's 100%
}

TEST(ReferenceModel, WorkingSetThatFitsMissesOnlyCold)
{
    // Any demand-fill policy over a working set smaller than the
    // cache incurs exactly one cold miss per block.
    Rng rng(9);
    Trace trace("fits", 2);
    for (int i = 0; i < 20000; ++i)
        trace.append(rng.below(256) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(2)),
                     rng.chance(0.5));
    const CacheGeometry geo{64 * 1024, 8, kBlockBytes}; // 1024 blocks
    for (const auto &policy : builtinPolicyNames()) {
        StreamSim sim(trace, geo,
                      requirePolicyFactory(policy)(geo.numSets(),
                                                geo.ways));
        sim.run();
        EXPECT_EQ(sim.misses(), trace.footprintBlocks()) << policy;
    }
}

// ---------------------------------------------------------------------
// FigureGeometryLru
// ---------------------------------------------------------------------

/** LRU misses of `stream` at `geo`: StreamSim's, then ReferenceLru's. */
std::pair<std::uint64_t, std::uint64_t>
lruMisses(const Trace &stream, const CacheGeometry &geo)
{
    StreamSim sim(stream, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();
    ReferenceLru reference(geo.numSets(), geo.ways);
    std::uint64_t ref_misses = 0;
    for (const auto &access : stream)
        ref_misses += reference.access(access) ? 0 : 1;
    return {sim.misses(), ref_misses};
}

/** The figures' study configuration (8 cores) at a quick scale. */
StudyConfig
figureStudy()
{
    StudyConfig study;
    study.workload.scale = 0.02;
    return study;
}

/**
 * Replay capacities: the two study capacities, then the same 16-way
 * geometry shrunk by 64.  At scale 0.02 the study capacities hold every
 * workload's footprint, so they see cold misses only; the shrunk pair
 * keeps the footprint-to-capacity pressure of a full-scale run, so its
 * replays evict and compare victim choices.
 */
std::vector<std::uint64_t>
figureCapacities(const StudyConfig &study)
{
    return {study.llcSmallBytes, study.llcLargeBytes,
            study.llcSmallBytes / 64, study.llcLargeBytes / 64};
}

TEST(FigureGeometryLru, MatchesStreamSimOnEveryWorkload)
{
    // Every workload's captured stream at every capacity: the set index
    // and tag of every block number the capture recorded must agree
    // with the naive model, miss for miss.
    const StudyConfig study = figureStudy();
    ASSERT_EQ(study.workload.threads, 8u);
    ASSERT_EQ(study.llcWays, 16u);
    const auto capacities = figureCapacities(study);
    CaptureCache cache;
    std::vector<std::uint64_t> evicting(capacities.size(), 0);
    for (const WorkloadInfo &info : allWorkloads()) {
        SCOPED_TRACE(info.name);
        const CapturedWorkload wl =
            captureWorkload(info.name, study, cache);
        const std::uint64_t cold = wl.stream.footprintBlocks();
        for (std::size_t c = 0; c < capacities.size(); ++c) {
            const auto [sim, ref] =
                lruMisses(wl.stream, study.llcGeometry(capacities[c]));
            ASSERT_EQ(sim, ref) << capacities[c] << " bytes";
            ASSERT_GE(sim, cold);
            evicting[c] += sim > cold ? 1 : 0;
        }
    }
    // At this scale the study capacities swallow the footprints; the
    // shrunk ones must evict in most workloads (24 of 26 do).
    EXPECT_GT(2 * evicting[2], allWorkloads().size());
    EXPECT_GT(2 * evicting[3], allWorkloads().size());
}

TEST(FigureGeometryLru, MatchesAfterBundleRoundTrip)
{
    // The compact record must carry every block number, PC, core and
    // write flag through capture -> bundle -> replay: a saved and then
    // mapped (or read-in) stream replays to the same misses as the
    // capture it came from, and equals it record for record.
    const StudyConfig study = figureStudy();
    const HierarchyConfig hier = captureHierarchyConfig(study);
    CaptureCache cache;
    const auto dir = std::filesystem::temp_directory_path() /
                     ("casim_figure_lru_" + std::to_string(::getpid()));
    for (const std::string app : {"canneal", "streamcluster", "ocean",
                                  "art_omp"}) {
        SCOPED_TRACE(app);
        const CapturedWorkload wl = captureWorkload(app, study, cache);
        const std::uint64_t hash =
            captureConfigHash(app, study.workload, hier);
        const std::string path = captureCachePath(dir.string(), app, hash);
        ASSERT_TRUE(cache.save(path, hash, wl));
        for (const auto load : {&mapCaptureBundle, &readInCaptureBundle}) {
            MappedCaptureBundle bundle;
            std::string error;
            ASSERT_TRUE(load(path, hash, bundle, &error)) << error;
            const Trace &loaded = bundle.stream;
            ASSERT_EQ(loaded.size(), wl.stream.size());
            ASSERT_EQ(std::memcmp(loaded.data(), wl.stream.data(),
                                  wl.stream.size() * sizeof(MemAccess)),
                      0);
            for (const std::uint64_t bytes : figureCapacities(study)) {
                const CacheGeometry geo = study.llcGeometry(bytes);
                const auto fresh = lruMisses(wl.stream, geo);
                const auto again = lruMisses(loaded, geo);
                EXPECT_EQ(again.first, fresh.first) << bytes;
                EXPECT_EQ(again.second, fresh.first) << bytes;
            }
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------
// ReferenceResidency
// ---------------------------------------------------------------------

/** The reference model's ended residencies of `stream` at `geo`. */
std::vector<RefResidency>
referenceResidencies(const Trace &stream, const CacheGeometry &geo)
{
    ReferenceLru reference(geo.numSets(), geo.ways);
    for (const auto &access : stream)
        reference.access(access);
    reference.finish();
    return reference.ended();
}

/**
 * The paper's characterization of `ended`, computed here from first
 * principles: a residency is shared iff two or more cores touched it,
 * read-write iff any store touched it, and dead iff it served no hit.
 * Classes are indexed like SharingClass: private_ro, private_rw,
 * shared_ro, shared_rw.
 */
SharingSummary
referenceSummary(const std::vector<RefResidency> &ended, unsigned cores)
{
    SharingSummary summary;
    summary.sharerHits.assign(cores, 0);
    for (const RefResidency &r : ended) {
        const auto sharers = static_cast<unsigned>(std::popcount(r.touched));
        const bool shared = sharers >= 2;
        const unsigned cls = (shared ? 2 : 0) + (r.written ? 1 : 0);
        summary.classHits[cls] += r.hits;
        summary.classResidencies[cls] += 1;
        summary.sharerHits[sharers - 1] += r.hits;
        (shared ? summary.sharedHits : summary.privateHits) += r.hits;
        summary.deadResidencies += r.hits == 0 ? 1 : 0;
    }
    const std::uint64_t total = summary.sharedHits + summary.privateHits;
    summary.sharedHitFraction =
        total == 0 ? 0.0
                   : static_cast<double>(summary.sharedHits) /
                         static_cast<double>(total);
    return summary;
}

/** A training labeler that labels nothing and keeps every outcome. */
class RecordingLabeler : public FillLabeler
{
  public:
    bool
    predictShared(const ReplContext &fill) override
    {
        (void)fill;
        return false;
    }
    void
    train(const ResidencyOutcome &outcome) override
    {
        EXPECT_FALSE(outcome.predictedShared);
        seen.push_back({outcome.addr, outcome.fillPC, outcome.touchedMask,
                        outcome.hits, outcome.written});
    }
    bool trains() const override { return true; }
    std::string name() const override { return "recording"; }

    std::vector<RefResidency> seen;
};

/** `ended` sorted, so two multisets compare element by element. */
std::vector<RefResidency>
sorted(std::vector<RefResidency> ended)
{
    std::sort(ended.begin(), ended.end(),
              [](const RefResidency &a, const RefResidency &b) {
                  return a.key() < b.key();
              });
    return ended;
}

/** An LRU StreamSim of `stream` at `geo`. */
std::unique_ptr<StreamSim>
lruReplay(const Trace &stream, const CacheGeometry &geo)
{
    return std::make_unique<StreamSim>(
        stream, geo, requirePolicyFactory("lru")(geo.numSets(), geo.ways));
}

/**
 * A StreamSim replay of `stream` with a SharingTracker attached must
 * report exactly the reference's characterization, which is returned.
 */
SharingSummary
expectTrackerMatchesReference(const Trace &stream, const CacheGeometry &geo,
                              const std::string &what)
{
    const std::vector<RefResidency> ended = referenceResidencies(stream, geo);
    const unsigned cores = stream.numCores();
    const SharingSummary want = referenceSummary(ended, cores);
    SharingTracker tracker(cores);
    auto sim = lruReplay(stream, geo);
    sim->setSharingTracker(&tracker);
    sim->run();
    const SharingSummary got = SharingSummary::from(tracker, cores);
    EXPECT_EQ(got.sharedHits, want.sharedHits) << what;
    EXPECT_EQ(got.privateHits, want.privateHits) << what;
    EXPECT_EQ(got.sharedHitFraction, want.sharedHitFraction) << what;
    for (unsigned cls = 0; cls < 4; ++cls) {
        EXPECT_EQ(got.classHits[cls], want.classHits[cls])
            << what << " class " << cls;
        EXPECT_EQ(got.classResidencies[cls], want.classResidencies[cls])
            << what << " class " << cls;
    }
    EXPECT_EQ(got.sharerHits, want.sharerHits) << what;
    EXPECT_EQ(got.deadResidencies, want.deadResidencies) << what;
    EXPECT_EQ(tracker.misses(), ended.size()) << what;
    EXPECT_EQ(sim->misses(), ended.size()) << what;
    return want;
}

/**
 * Fail unless `summaries` together hold residencies of every sharing
 * class, shared and private hits, and dead residencies: the streams
 * must exercise every part of the characterization.
 */
void
expectFullCoverage(const std::vector<SharingSummary> &summaries)
{
    SharingSummary total;
    for (const SharingSummary &summary : summaries) {
        total.sharedHits += summary.sharedHits;
        total.privateHits += summary.privateHits;
        total.deadResidencies += summary.deadResidencies;
        for (unsigned cls = 0; cls < 4; ++cls)
            total.classResidencies[cls] += summary.classResidencies[cls];
    }
    EXPECT_GT(total.sharedHits, 0u);
    EXPECT_GT(total.privateHits, 0u);
    EXPECT_GT(total.deadResidencies, 0u);
    for (unsigned cls = 0; cls < 4; ++cls)
        EXPECT_GT(total.classResidencies[cls], 0u) << "class " << cls;
}

/**
 * A training labeler on a StreamSim replay of `stream` must learn from
 * exactly the reference's residencies, fields and all.
 */
void
expectTrainingMatchesReference(const Trace &stream,
                               const CacheGeometry &geo,
                               const std::string &what)
{
    const std::vector<RefResidency> want =
        sorted(referenceResidencies(stream, geo));
    RecordingLabeler labeler;
    auto sim = lruReplay(stream, geo);
    sim->setLabeler(&labeler);
    sim->run();
    const std::vector<RefResidency> got = sorted(labeler.seen);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i].key(), want[i].key())
            << what << ": residency " << i << " of block 0x" << std::hex
            << want[i].addr;
}

/** Four cores, 30% stores, a footprint four times the capacity. */
Trace
randomStream(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace("ref", 4);
    for (int i = 0; i < 50000; ++i)
        trace.append(rng.below(2048) * kBlockBytes, 0x400 + rng.below(8),
                     static_cast<CoreId>(rng.below(4)), rng.chance(0.3));
    return trace;
}

/** The LLC streams of several workloads, captured by the hierarchy. */
std::vector<Trace>
capturedStreams()
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.02;
    config.workload.seed = 5;
    HierarchyConfig hier = config.hierarchy;
    hier.numCores = 4;
    hier.l1 = CacheGeometry{4 * 1024, 4, kBlockBytes};
    hier.llc = CacheGeometry{64 * 1024, 8, kBlockBytes};
    std::vector<Trace> streams;
    for (const std::string app : {"canneal", "streamcluster", "ocean"}) {
        const Trace workload = makeWorkloadTrace(app, config.workload);
        Trace captured(app, config.workload.threads);
        runHierarchy(workload, hier, requirePolicyFactory("lru"), &captured);
        streams.push_back(std::move(captured));
    }
    return streams;
}

/** Replayed at half the capturing LLC, so every stream evicts. */
const CacheGeometry kCaptureReplayGeo{32 * 1024, 8, kBlockBytes};

/** 64 sets of 8 ways: a quarter of the random streams' footprint. */
const CacheGeometry kRandomReplayGeo{32 * 1024, 8, kBlockBytes};

TEST(ReferenceResidency, TrackerMatchesOnRandomStreams)
{
    std::vector<SharingSummary> summaries;
    for (const std::uint64_t seed : {1u, 2u, 3u})
        summaries.push_back(expectTrackerMatchesReference(
            randomStream(seed), kRandomReplayGeo,
            "seed " + std::to_string(seed)));
    expectFullCoverage(summaries);
}

TEST(ReferenceResidency, TrainingOutcomesMatchOnRandomStreams)
{
    for (const std::uint64_t seed : {1u, 2u, 3u})
        expectTrainingMatchesReference(randomStream(seed),
                                       kRandomReplayGeo,
                                       "seed " + std::to_string(seed));
}

TEST(ReferenceResidency, TrackerMatchesOnCaptures)
{
    std::vector<SharingSummary> summaries;
    for (const Trace &stream : capturedStreams())
        summaries.push_back(expectTrackerMatchesReference(
            stream, kCaptureReplayGeo, stream.name()));
    expectFullCoverage(summaries);
}

TEST(ReferenceResidency, TrainingOutcomesMatchOnCaptures)
{
    for (const Trace &stream : capturedStreams())
        expectTrainingMatchesReference(stream, kCaptureReplayGeo,
                                       stream.name());
}


// ---------------------------------------------------------------------
// ReferenceInsertion
// ---------------------------------------------------------------------

/**
 * An explicit recency list per set (front = MRU), as DIP and TADIP-F
 * kept it before they moved onto LRU's stamps: a fill moves its way to
 * the front or the back, a hit to the front, an invalidation leaves the
 * order alone, and the victim is the allowed way nearest the back.
 */
class RecencyList
{
  public:
    RecencyList(unsigned num_sets, unsigned ways) : order_(num_sets)
    {
        for (auto &order : order_)
            for (unsigned way = 0; way < ways; ++way)
                order.push_back(way);
    }

    void
    fill(unsigned set, unsigned way, bool at_mru)
    {
        auto &order = order_[set];
        order.remove(way);
        if (at_mru)
            order.push_front(way);
        else
            order.push_back(way);
    }

    void hit(unsigned set, unsigned way) { fill(set, way, true); }

    unsigned
    victim(unsigned set, std::uint64_t exclude) const
    {
        const auto &order = order_[set];
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            if (!(exclude & (std::uint64_t{1} << *it)))
                return *it;
        }
        ADD_FAILURE() << "all ways excluded";
        return 0;
    }

    /** Recency position of a way: 0 = MRU. */
    unsigned
    position(unsigned set, unsigned way) const
    {
        const auto &order = order_[set];
        return static_cast<unsigned>(std::distance(
            order.begin(), std::find(order.begin(), order.end(), way)));
    }

  private:
    std::vector<std::list<unsigned>> order_;
};

/** LRU's stamps with the insertion end of each fill set by the caller. */
class ChosenEndLru final : public LruBase
{
  public:
    using LruBase::LruBase;

    void
    onFill(unsigned set, unsigned way, const ReplContext &) override
    {
        if (nextFillAtMru)
            insertMru(set, way);
        else
            insertLru(set, way);
    }

    std::string name() const override { return "chosen-end"; }

    bool nextFillAtMru = true;
};

TEST(ReferenceInsertion, StampsMatchTheRecencyListOnRandomEvents)
{
    // 4- 8- and 16-way rows take the SIMD argmin when nothing is
    // excluded; 6 ways always take the scalar scan.
    const unsigned sets = 4;
    for (const unsigned ways : {4u, 6u, 8u, 16u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            const std::string what = std::to_string(ways) + " ways, seed " +
                                     std::to_string(seed);
            ChosenEndLru stamps(sets, ways);
            RecencyList list(sets, ways);
            const std::uint64_t full = (std::uint64_t{1} << ways) - 1;
            std::vector<std::uint64_t> valid(sets, 0);
            Rng rng(seed * 1000 + ways);
            const ReplContext ctx;
            unsigned victims = 0;
            for (int step = 0; step < 20000; ++step) {
                const auto set = static_cast<unsigned>(rng.below(sets));
                const auto fill = [&](unsigned way) {
                    stamps.nextFillAtMru = rng.chance(0.5);
                    stamps.onFill(set, way, ctx);
                    list.fill(set, way, stamps.nextFillAtMru);
                    valid[set] |= std::uint64_t{1} << way;
                };
                if (valid[set] != full) {
                    // Like the cache: refill the lowest invalid way.
                    fill(static_cast<unsigned>(
                        std::countr_zero(~valid[set] & full)));
                    continue;
                }
                const auto way = static_cast<unsigned>(rng.below(ways));
                const auto kind = rng.below(10);
                if (kind < 4) {
                    stamps.onHit(set, way, ctx);
                    list.hit(set, way);
                } else if (kind == 4) {
                    stamps.onInvalidate(set, way);
                    valid[set] &= ~(std::uint64_t{1} << way);
                    continue;
                } else {
                    const std::uint64_t exclude =
                        rng.chance(0.5) ? 0 : rng.below(full);
                    const unsigned victim = list.victim(set, exclude);
                    ASSERT_EQ(stamps.victim(set, ctx, exclude), victim)
                        << what << ", step " << step;
                    ++victims;
                    stamps.onEvict(set, victim);
                    fill(victim);
                }
                for (unsigned w = 0; w < ways; ++w)
                    ASSERT_EQ(stamps.stackDepth(set, w),
                              list.position(set, w))
                        << what << ", step " << step << ", way " << w;
            }
            EXPECT_GT(victims, 5000u) << what;
        }
    }
}

/** How a reference replay inserted its fills. */
struct InsertionCounts
{
    std::uint64_t misses = 0;
    std::uint64_t mruFills = 0;
    std::uint64_t lruFills = 0;
};

/**
 * Replay `stream` through a naive cache whose sets keep a RecencyList,
 * inserting each fill at the MRU end iff `at_mru(set, core)`.  Hits
 * and misses follow the tags alone; a miss fills the lowest invalid
 * way, else the list's victim.
 */
template <typename AtMru>
InsertionCounts
referenceInsertionReplay(const Trace &stream, const CacheGeometry &geo,
                         AtMru at_mru)
{
    const unsigned sets = geo.numSets();
    constexpr Addr kEmpty = ~Addr{0};
    std::vector<std::vector<Addr>> tags(
        sets, std::vector<Addr>(geo.ways, kEmpty));
    RecencyList list(sets, geo.ways);
    InsertionCounts counts;
    for (const auto &access : stream) {
        const Addr block = access.blockAddr();
        const auto set =
            static_cast<unsigned>((block / kBlockBytes) % sets);
        auto &row = tags[set];
        const auto hit = std::find(row.begin(), row.end(), block);
        if (hit != row.end()) {
            list.hit(set, static_cast<unsigned>(hit - row.begin()));
            continue;
        }
        ++counts.misses;
        const auto free = std::find(row.begin(), row.end(), kEmpty);
        const unsigned way =
            free != row.end() ? static_cast<unsigned>(free - row.begin())
                              : list.victim(set, 0);
        row[way] = block;
        const bool mru = at_mru(set, access.core);
        list.fill(set, way, mru);
        ++(mru ? counts.mruFills : counts.lruFills);
    }
    return counts;
}

/**
 * DIP and TADIP-F from the registry, replayed by StreamSim, must miss
 * exactly as often as the list model driven by a SetDuel / ThreadDuel
 * and RNG of their own, seeded like the registry's policies, and end
 * with the same PSELs.  Both insertion ends must actually be used.
 */
void
expectInsertionMatchesReference(const Trace &stream,
                                const CacheGeometry &geo,
                                const std::string &what)
{
    const unsigned sets = geo.numSets();
    // BIP: the LRU end, except for 1 fill in 32.
    const auto bip = [](Rng &rng) { return rng.below(32) == 0; };

    SetDuel duel(sets);
    Rng dip_rng(0xd1bee);
    const InsertionCounts dip = referenceInsertionReplay(
        stream, geo, [&](unsigned set, CoreId) {
            return duel.useBimodal(set) ? bip(dip_rng) : true;
        });
    StreamSim dip_sim(stream, geo, requirePolicyFactory("dip")(sets, geo.ways));
    dip_sim.run();
    EXPECT_EQ(dip_sim.misses(), dip.misses) << what << ", dip";
    EXPECT_EQ(dynamic_cast<const DipPolicy &>(dip_sim.cache().policy())
                  .duel()
                  .psel(),
              duel.psel())
        << what << ", dip";
    EXPECT_GT(dip.lruFills, 0u) << what << ", dip";
    EXPECT_GT(dip.mruFills, 0u) << what << ", dip";

    ThreadDuel thread_duel(sets, 8); // the registry's thread count
    Rng tadip_rng(0x7ad1b);
    const InsertionCounts tadip = referenceInsertionReplay(
        stream, geo, [&](unsigned set, CoreId core) {
            return thread_duel.useBimodal(set, core) ? bip(tadip_rng)
                                                     : true;
        });
    StreamSim tadip_sim(stream, geo,
                        requirePolicyFactory("tadip")(sets, geo.ways));
    tadip_sim.run();
    EXPECT_EQ(tadip_sim.misses(), tadip.misses) << what << ", tadip";
    const auto &tadip_policy =
        dynamic_cast<const TadipPolicy &>(tadip_sim.cache().policy());
    for (unsigned core = 0; core < stream.numCores(); ++core)
        EXPECT_EQ(tadip_policy.duel().psel(core), thread_duel.psel(core))
            << what << ", tadip, thread " << core;
    EXPECT_GT(tadip.lruFills, 0u) << what << ", tadip";
    EXPECT_GT(tadip.mruFills, 0u) << what << ", tadip";
}

TEST(ReferenceInsertion, DipAndTadipMatchOnRandomStreams)
{
    // 256 sets, so most sets follow their duel; a footprint four times
    // the capacity keeps every set evicting.
    const CacheGeometry geo{128 * 1024, 8, kBlockBytes};
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Trace trace("insertion", 4);
        for (int i = 0; i < 60000; ++i)
            trace.append(rng.below(8192) * kBlockBytes, 0x400,
                         static_cast<CoreId>(rng.below(4)),
                         rng.chance(0.3));
        expectInsertionMatchesReference(trace, geo,
                                        "seed " + std::to_string(seed));
    }
}

TEST(ReferenceInsertion, DipAndTadipMatchOnACapture)
{
    // canneal's LLC stream: about 64k references over 18k blocks,
    // replayed at 256 sets so most sets follow their duel.
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.1;
    config.workload.seed = 5;
    HierarchyConfig hier = config.hierarchy;
    hier.numCores = 4;
    hier.l1 = CacheGeometry{4 * 1024, 4, kBlockBytes};
    hier.llc = CacheGeometry{64 * 1024, 8, kBlockBytes};
    const Trace workload = makeWorkloadTrace("canneal", config.workload);
    Trace captured("canneal", config.workload.threads);
    runHierarchy(workload, hier, requirePolicyFactory("lru"), &captured);
    expectInsertionMatchesReference(
        captured, CacheGeometry{128 * 1024, 8, kBlockBytes}, "canneal");
}

} // namespace
} // namespace casim
