/**
 * @file
 * Tests of the lean replay path: a StreamSim whose attachments never
 * read block state replays on the tag mirrors alone, without the
 * per-way CacheBlock payload, and must count exactly what a payload
 * replay counts.
 */

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/awareness.hh"
#include "core/oracle.hh"
#include "core/predictor.hh"
#include "core/sharing_aware.hh"
#include "core/sharing_tracker.hh"
#include "mem/prefetcher.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/opt.hh"
#include "sim/parallel.hh"
#include "sim/sharded_sim.hh"
#include "sim/stream_sim.hh"
#include "trace/next_use.hh"

namespace casim {
namespace {

/** Four cores, 30% stores, a footprint about twice the capacity. */
const Trace &
leanTrace()
{
    static const Trace trace = [] {
        Rng rng(1307);
        Trace t("lean", 4);
        for (int i = 0; i < 20000; ++i)
            t.append(rng.below(2048) * kBlockBytes,
                     0x400 + rng.below(32) * 4,
                     static_cast<CoreId>(rng.below(4)), rng.chance(0.3));
        return t;
    }();
    return trace;
}

const NextUseIndex &
leanIndex()
{
    static const NextUseIndex index(leanTrace());
    return index;
}

CacheGeometry
leanGeometry()
{
    return CacheGeometry{64 * 1024, 8, kBlockBytes}; // 128 sets
}

/** Every builtin policy plus OPT. */
std::vector<std::string>
replayPolicies()
{
    std::vector<std::string> names = builtinPolicyNames();
    names.push_back("opt");
    return names;
}

ReplPolicyFactory
factoryFor(const std::string &policy)
{
    if (policy != "opt")
        return requirePolicyFactory(policy);
    return [](unsigned sets, unsigned ways) {
        return std::unique_ptr<ReplPolicy>(
            new OptPolicy(sets, ways, leanIndex()));
    };
}

/** The llc counters, which must not depend on the payload. */
const char *const kLlcCounters[] = {
    "demand_hits", "demand_misses",     "fills",      "evictions",
    "dirty_evictions", "ext_invalidations", "write_hits", "write_misses",
};

/** Check `lean` and `full` counter by counter. */
void
expectSameLlcCounters(const Cache &lean, const Cache &full,
                      const std::string &what)
{
    for (const char *name : kLlcCounters) {
        const std::string path = std::string("llc.") + name;
        const auto lean_value =
            stats::counterValue(lean.stats().find(path));
        const auto full_value =
            stats::counterValue(full.stats().find(path));
        ASSERT_TRUE(lean_value.has_value()) << what << ": " << path;
        ASSERT_TRUE(full_value.has_value()) << what << ": " << path;
        EXPECT_EQ(*lean_value, *full_value) << what << ": " << path;
    }
}

/** Replay `sim` once, optionally forcing the payload. */
template <typename Sim>
void
runWithPayload(Sim &sim, bool payload)
{
    // A chained observer that does nothing still makes the replay
    // keep (and maintain) the payload.
    static CacheObserver no_op;
    sim.setObserver(payload ? &no_op : nullptr);
    if constexpr (std::is_same_v<Sim, ShardedStreamSim>) {
        ParallelRunner runner(4);
        sim.run(&runner);
    } else {
        sim.run();
    }
}

TEST(LeanReplay, SerialMatchesPayloadReplay)
{
    const CacheGeometry geo = leanGeometry();
    for (const std::string &policy : replayPolicies()) {
        const ReplPolicyFactory factory = factoryFor(policy);
        StreamSim lean(leanTrace(), geo,
                       factory(geo.numSets(), geo.ways));
        StreamSim full(leanTrace(), geo,
                       factory(geo.numSets(), geo.ways));
        runWithPayload(lean, false);
        runWithPayload(full, true);
        EXPECT_FALSE(lean.cache().hasPayload()) << policy;
        EXPECT_TRUE(full.cache().hasPayload()) << policy;
        expectSameLlcCounters(lean.cache(), full.cache(), policy);
    }
}

TEST(LeanReplay, ShardedMatchesPayloadReplay)
{
    // Global-state policies shard too here: lean and payload runs of
    // the same sharded replay must agree whether or not the sharded
    // result matches the serial one.
    for (const std::string &policy : replayPolicies()) {
        ShardedStreamSim lean(leanTrace(), leanGeometry(), 4,
                              factoryFor(policy));
        ShardedStreamSim full(leanTrace(), leanGeometry(), 4,
                              factoryFor(policy));
        runWithPayload(lean, false);
        runWithPayload(full, true);
        EXPECT_FALSE(lean.cache().hasPayload()) << policy;
        EXPECT_TRUE(full.cache().hasPayload()) << policy;
        expectSameLlcCounters(lean.cache(), full.cache(),
                              policy + " @ 4 shards");
    }
}

TEST(LeanReplay, OracleWrappedMatchesPayloadReplay)
{
    // Labeled replays never shard (the experiment layer falls back to
    // serial), so the oracle-wrapped cell is covered serially.
    const CacheGeometry geo = leanGeometry();
    const SeqNo window = 4 * (geo.sizeBytes / kBlockBytes);
    const auto make_sim = [&geo]() {
        return std::make_unique<StreamSim>(
            leanTrace(), geo,
            std::make_unique<SharingAwareWrapper>(
                requirePolicyFactory("lru")(geo.numSets(), geo.ways)));
    };
    OracleLabeler lean_oracle(leanIndex(), window);
    OracleLabeler full_oracle(leanIndex(), window);
    auto lean = make_sim();
    auto full = make_sim();
    lean->setLabeler(&lean_oracle);
    full->setLabeler(&full_oracle);
    runWithPayload(*lean, false);
    runWithPayload(*full, true);
    EXPECT_FALSE(lean->cache().hasPayload());
    EXPECT_TRUE(full->cache().hasPayload());
    expectSameLlcCounters(lean->cache(), full->cache(), "sa+lru oracle");
    const auto lean_shared = stats::counterValue(
        lean_oracle.stats().find("oracle.shared_labels"));
    ASSERT_TRUE(lean_shared.has_value());
    EXPECT_GT(*lean_shared, 0u);
    EXPECT_EQ(lean_shared,
              stats::counterValue(
                  full_oracle.stats().find("oracle.shared_labels")));
}

/** A plain LRU replay of leanTrace() at leanGeometry(). */
std::unique_ptr<StreamSim>
lruSim()
{
    const CacheGeometry geo = leanGeometry();
    return std::make_unique<StreamSim>(
        leanTrace(), geo,
        requirePolicyFactory("lru")(geo.numSets(), geo.ways));
}

TEST(LeanReplay, UnobservedReplaysAllocateNoPayload)
{
    const CacheGeometry geo = leanGeometry();

    auto plain = lruSim();
    EXPECT_FALSE(plain->cache().hasPayload());
    plain->run();
    EXPECT_FALSE(plain->cache().hasPayload());

    StreamSim opt(leanTrace(), geo, factoryFor("opt")(geo.numSets(),
                                                      geo.ways));
    opt.run();
    EXPECT_FALSE(opt.cache().hasPayload());

    OracleLabeler oracle(leanIndex(), 4 * (geo.sizeBytes / kBlockBytes));
    StreamSim labeled(leanTrace(), geo,
                      std::make_unique<SharingAwareWrapper>(
                          requirePolicyFactory("lru")(geo.numSets(),
                                                      geo.ways)));
    labeled.setLabeler(&oracle);
    labeled.run();
    EXPECT_FALSE(labeled.cache().hasPayload());

    ShardedStreamSim sharded(leanTrace(), geo, 4,
                             requirePolicyFactory("srrip"));
    sharded.run();
    EXPECT_FALSE(sharded.cache().hasPayload());
}

TEST(LeanReplay, ObservedReplaysAllocateThePayload)
{
    // Training labelers replay on residency records instead (see
    // LeanTraining.* in test_lean_state.cc).
    const CacheGeometry geo = leanGeometry();

    AwarenessScorer scorer(leanIndex(), 4 * (geo.sizeBytes / kBlockBytes));
    auto scored = lruSim();
    scored->setAwarenessScorer(&scorer);
    scored->run();
    EXPECT_TRUE(scored->cache().hasPayload());
    EXPECT_GT(scorer.evictions(), 0u);

    // The "sharing" request kind: a chained SharingTracker.
    SharingTracker tracker(leanTrace().numCores());
    auto tracked = lruSim();
    tracked->setObserver(&tracker);
    tracked->run();
    EXPECT_TRUE(tracked->cache().hasPayload());
    EXPECT_GT(tracker.sharedResidencies() + tracker.privateResidencies(),
              0u);

    StridePrefetcher prefetcher;
    auto prefetched = lruSim();
    prefetched->setPrefetcher(&prefetcher);
    prefetched->run();
    EXPECT_TRUE(prefetched->cache().hasPayload());
}

TEST(LeanReplay, LabelersDeclareWhetherTheyTrain)
{
    PredictorConfig config;
    OracleLabeler oracle(leanIndex(), 1024);
    NeverSharedLabeler never;
    AlwaysSharedLabeler always;
    ResidencyReplayLabeler residency;
    EXPECT_FALSE(oracle.trains());
    EXPECT_FALSE(never.trains());
    EXPECT_FALSE(always.trains());
    EXPECT_FALSE(residency.trains());

    AddressSharingPredictor addr(config);
    PcSharingPredictor pc(config);
    HybridSharingPredictor hybrid(config);
    TaggedSharingPredictor tagged(config);
    LabelerEvaluator evaluator(oracle, nullptr);
    EXPECT_TRUE(addr.trains());
    EXPECT_TRUE(pc.trains());
    EXPECT_TRUE(hybrid.trains());
    EXPECT_TRUE(tagged.trains());
    EXPECT_TRUE(evaluator.trains());
}

} // namespace
} // namespace casim
