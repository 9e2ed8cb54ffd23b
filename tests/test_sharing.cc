/**
 * @file
 * Unit tests for the sharing study core: residency classification, the
 * sharing tracker, oracle labelers, the sharing-aware victim filter,
 * and the awareness scorer.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/awareness.hh"
#include "core/oracle.hh"
#include "core/sharing_aware.hh"
#include "core/sharing_tracker.hh"
#include "mem/prefetcher.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/opt.hh"
#include "sim/stream_sim.hh"

namespace casim {
namespace {

TEST(SharingClass, Classification)
{
    EXPECT_EQ(classifyResidency(0b1, false),
              SharingClass::PrivateReadOnly);
    EXPECT_EQ(classifyResidency(0b1, true),
              SharingClass::PrivateReadWrite);
    EXPECT_EQ(classifyResidency(0b11, false),
              SharingClass::SharedReadOnly);
    EXPECT_EQ(classifyResidency(0b1010, true),
              SharingClass::SharedReadWrite);
}

TEST(SharingClass, Names)
{
    EXPECT_STREQ(sharingClassName(SharingClass::PrivateReadOnly),
                 "private_ro");
    EXPECT_STREQ(sharingClassName(SharingClass::SharedReadWrite),
                 "shared_rw");
}

TEST(SharingTracker, AttributesHitsToClasses)
{
    SharingTracker tracker(4);
    tracker.recordResidency(0b1, 10, false);   // private ro
    tracker.recordResidency(0b11, 30, false);  // shared ro
    tracker.recordResidency(0b111, 5, true);   // shared rw
    tracker.recordResidency(0b10, 0, true);    // private rw

    EXPECT_EQ(tracker.sharedHits(), 35u);
    EXPECT_EQ(tracker.privateHits(), 10u);
    EXPECT_EQ(tracker.totalHits(), 45u);
    EXPECT_NEAR(tracker.sharedHitFraction(), 35.0 / 45.0, 1e-12);
    EXPECT_EQ(tracker.hitsByClass(SharingClass::SharedReadOnly), 30u);
    EXPECT_EQ(tracker.hitsByClass(SharingClass::SharedReadWrite), 5u);
    EXPECT_EQ(tracker.sharedResidencies(), 2u);
    EXPECT_EQ(tracker.privateResidencies(), 2u);
    EXPECT_EQ(tracker.deadResidencies(), 1u);
}

TEST(SharingTracker, SharerHistogram)
{
    SharingTracker tracker(8);
    tracker.recordResidency(0b1, 4, false);        // 1 core
    tracker.recordResidency(0b11, 6, false);       // 2 cores
    tracker.recordResidency(0b11111111, 8, false); // 8 cores
    EXPECT_EQ(tracker.hitsBySharerCount(1), 4u);
    EXPECT_EQ(tracker.hitsBySharerCount(2), 6u);
    EXPECT_EQ(tracker.hitsBySharerCount(8), 8u);
    EXPECT_EQ(tracker.hitsBySharerCount(3), 0u);
}

TEST(SharingTracker, CountsMisses)
{
    SharingTracker tracker(2);
    tracker.recordMiss();
    tracker.recordMiss();
    EXPECT_EQ(tracker.misses(), 2u);
}

TEST(Labelers, ConstantLabelers)
{
    NeverSharedLabeler never;
    AlwaysSharedLabeler always;
    ReplContext ctx;
    EXPECT_FALSE(never.predictShared(ctx));
    EXPECT_TRUE(always.predictShared(ctx));
    EXPECT_EQ(never.name(), "never");
    EXPECT_EQ(always.name(), "always");
}

TEST(OracleLabeler, UsesFutureWindow)
{
    // Block X at positions 0 (core 0) and 3 (core 1).
    Trace trace("t", 2);
    trace.append(0x000, 0, 0, false);
    trace.append(0x040, 0, 0, false);
    trace.append(0x080, 0, 1, false);
    trace.append(0x000, 0, 1, false);
    const NextUseIndex index(trace);

    OracleLabeler narrow(index, 2);
    OracleLabeler wide(index, 10);
    ReplContext fill{0x000, 0, 0, false, 0, false};
    EXPECT_FALSE(narrow.predictShared(fill)); // core 1 outside [0, 2)
    EXPECT_TRUE(wide.predictShared(fill));
    EXPECT_EQ(wide.window(), 10u);
}

TEST(OracleLabeler, DefaultWindowScalesWithCapacity)
{
    EXPECT_EQ(defaultOracleWindow(4ULL << 20), 8u * 65536u);
    EXPECT_EQ(defaultOracleWindow(8ULL << 20), 8u * 131072u);
}

TEST(ResidencyReplay, ReplaysRecordedOutcomes)
{
    ResidencyReplayLabeler labeler;
    labeler.recordOutcome(0x1000, true);
    labeler.recordOutcome(0x1000, false);
    labeler.recordOutcome(0x2000, false);

    ReplContext fill{0x1000, 0, 0, false, 0, false};
    EXPECT_TRUE(labeler.predictShared(fill));  // 1st residency
    EXPECT_FALSE(labeler.predictShared(fill)); // 2nd residency
    // Past the recorded history: clamps to the last outcome.
    EXPECT_FALSE(labeler.predictShared(fill));

    ReplContext other{0x3000, 0, 0, false, 0, false};
    EXPECT_FALSE(labeler.predictShared(other)); // unknown block
    EXPECT_EQ(labeler.blocksRecorded(), 2u);
}

ReplContext
fillCtx(Addr block, bool predicted_shared, SeqNo seq = 0)
{
    return ReplContext{block, 0x400, 0, false, seq, predicted_shared};
}

/** Wrapper with demotion off: isolates the protection mechanism. */
SharingAwareWrapper
protectOnlyWrapper(unsigned sets, unsigned ways, unsigned pre,
                   unsigned post = 0, double quota = 0.5,
                   bool dueling = true)
{
    return SharingAwareWrapper(std::make_unique<LruPolicy>(sets, ways),
                               pre, post, quota, dueling,
                               /*demote_private=*/false);
}

TEST(SharingAware, ProtectsLabeledBlocks)
{
    auto wrapper = protectOnlyWrapper(1, 4, 8);
    // Fill ways 0..3; way 0 labeled shared (and is LRU).
    wrapper.onFill(0, 0, fillCtx(0x000, true));
    wrapper.onFill(0, 1, fillCtx(0x040, false));
    wrapper.onFill(0, 2, fillCtx(0x080, false));
    wrapper.onFill(0, 3, fillCtx(0x0c0, false));
    EXPECT_TRUE(wrapper.isProtected(0, 0));
    // LRU would pick way 0, protection diverts to way 1.
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x100, false), 0), 1u);
    EXPECT_EQ(wrapper.filteredVictims(), 1u);
}

TEST(SharingAware, ProtectionLapsesAfterSetAccesses)
{
    // Budget of 3 set accesses: the set clock starts at 0, the fill
    // stamps expiry = 3, and each victim() call ticks the clock.
    auto wrapper = protectOnlyWrapper(1, 2, 3);
    wrapper.onFill(0, 0, fillCtx(0x000, true));
    wrapper.onFill(0, 1, fillCtx(0x040, false));
    // Clock 1 and 2: way 0 protected, way 1 chosen.
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x080, false), 0), 1u);
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x080, false), 0), 1u);
    // Clock 3: protection expired; way 0 is LRU.
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x080, false), 0), 0u);
    EXPECT_FALSE(wrapper.isProtected(0, 0));
}

TEST(SharingAware, HitRefreshesProtection)
{
    auto wrapper = protectOnlyWrapper(1, 2, 2);
    wrapper.onFill(0, 0, fillCtx(0x000, true)); // expiry = 2
    wrapper.onFill(0, 1, fillCtx(0x040, false));
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x080, false), 0), 1u);
    // The same-core hit advances the clock to 2 but re-stamps the
    // expiry to 4, keeping the protection alive one more round.
    wrapper.onHit(0, 0, fillCtx(0x000, false));
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x080, false), 0), 1u);
    EXPECT_TRUE(wrapper.isProtected(0, 0));
    // Clock reaches the refreshed expiry: protection lapses.
    wrapper.victim(0, fillCtx(0x080, false), 0);
    EXPECT_FALSE(wrapper.isProtected(0, 0));
}

TEST(SharingAware, CrossCoreHitShortensBudget)
{
    // Pre-share budget 8, post-share budget 2.  After the promised
    // sharing is observed (hit from another core), the block only
    // survives 2 further set accesses without hits.
    auto wrapper = protectOnlyWrapper(1, 2, 8, 2);
    wrapper.onFill(0, 0, fillCtx(0x000, true)); // fill by core 0
    wrapper.onFill(0, 1, fillCtx(0x040, false));
    ReplContext remote_hit{0x000, 0x400, 1, false, 0, false};
    wrapper.onHit(0, 0, remote_hit); // clock 1, expiry 1 + 2 = 3
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x080, false), 0), 1u); // clk 2
    EXPECT_TRUE(wrapper.isProtected(0, 0));
    wrapper.victim(0, fillCtx(0x080, false), 0); // clk 3: expires
    EXPECT_FALSE(wrapper.isProtected(0, 0));
    // Without the cross-core hit the pre-share budget (8) would have
    // kept the block protected well past clock 3.
}

TEST(SharingAware, AllProtectedFallsBackToBase)
{
    // Quota 1.0 lets every way be protected at once.
    auto wrapper = protectOnlyWrapper(1, 2, 100, 0, 1.0);
    wrapper.onFill(0, 0, fillCtx(0x000, true));
    wrapper.onFill(0, 1, fillCtx(0x040, true));
    // Both protected: the wrapper must not deadlock.
    EXPECT_EQ(wrapper.victim(0, fillCtx(0x080, false), 0), 0u);
    EXPECT_EQ(wrapper.saturatedSets(), 1u);
}

TEST(SharingAware, DuelingAssignsLeaderRoles)
{
    auto wrapper = SharingAwareWrapper(
        std::make_unique<LruPolicy>(1024, 4), 8);
    unsigned on = 0, off = 0, followers = 0;
    for (unsigned set = 0; set < 1024; ++set) {
        switch (wrapper.role(set)) {
          case SharingAwareWrapper::Role::OnLeader:
            ++on;
            break;
          case SharingAwareWrapper::Role::OffLeader:
            ++off;
            break;
          default:
            ++followers;
        }
    }
    EXPECT_EQ(on, 64u);
    EXPECT_EQ(off, 64u);
    EXPECT_EQ(followers, 1024u - 128u);
}

TEST(SharingAware, DuelingPselTracksLeaderMisses)
{
    auto wrapper = SharingAwareWrapper(
        std::make_unique<LruPolicy>(64, 4), 8);
    unsigned on_set = 64, off_set = 64;
    for (unsigned set = 0; set < 64; ++set) {
        if (wrapper.role(set) == SharingAwareWrapper::Role::OnLeader &&
            on_set == 64)
            on_set = set;
        if (wrapper.role(set) == SharingAwareWrapper::Role::OffLeader &&
            off_set == 64)
            off_set = set;
    }
    ASSERT_LT(on_set, 64u);
    ASSERT_LT(off_set, 64u);

    const unsigned before = wrapper.psel();
    wrapper.onFill(on_set, 0, fillCtx(0x000, false));
    EXPECT_EQ(wrapper.psel(), before + 1);
    wrapper.onFill(off_set, 0, fillCtx(0x000, false));
    wrapper.onFill(off_set, 0, fillCtx(0x000, false));
    EXPECT_EQ(wrapper.psel(), before - 1);
}

TEST(SharingAware, DuelingDisablesFollowerProtection)
{
    // 128 sets: 64 leaders and 64 followers.
    auto wrapper = protectOnlyWrapper(128, 2, 100, 0, 1.0);
    // Drive PSEL to "protection hurts" by missing in ON-leader sets.
    unsigned on_set = 128, follower = 128;
    for (unsigned set = 0; set < 128; ++set) {
        if (wrapper.role(set) == SharingAwareWrapper::Role::OnLeader &&
            on_set == 128)
            on_set = set;
        if (wrapper.role(set) == SharingAwareWrapper::Role::Follower &&
            follower == 128)
            follower = set;
    }
    ASSERT_LT(on_set, 128u);
    ASSERT_LT(follower, 128u);
    for (int i = 0; i < 600; ++i)
        wrapper.onFill(on_set, 0, fillCtx(0x000, false));
    EXPECT_FALSE(wrapper.followersProtect());

    // Follower fills are not granted protection...
    wrapper.onFill(follower, 0, fillCtx(0x000, true));
    wrapper.onFill(follower, 1, fillCtx(0x040, false));
    // ...so the base LRU victim (way 0) is used untouched.
    EXPECT_EQ(wrapper.victim(0x0 + follower, fillCtx(0x080, false), 0),
              0u);
    // ON-leader sets keep protecting regardless of PSEL.
    wrapper.onFill(on_set, 0, fillCtx(0x000, true));
    wrapper.onFill(on_set, 1, fillCtx(0x040, false));
    EXPECT_EQ(wrapper.victim(on_set, fillCtx(0x080, false), 0), 1u);
}

TEST(SharingAware, QuotaBoundsProtectedWays)
{
    // Quota 0.5 on 4 ways: at most 2 protected at a time.
    auto wrapper = protectOnlyWrapper(1, 4, 100, 0, 0.5);
    for (unsigned way = 0; way < 4; ++way)
        wrapper.onFill(0, way, fillCtx(way * 0x40, true));
    unsigned live = 0;
    for (unsigned way = 0; way < 4; ++way)
        live += wrapper.isProtected(0, way) ? 1 : 0;
    EXPECT_EQ(live, 2u);
}

TEST(SharingAware, EvictionClearsProtection)
{
    auto wrapper = protectOnlyWrapper(1, 2, 8);
    wrapper.onFill(0, 0, fillCtx(0x000, true));
    wrapper.onEvict(0, 0);
    EXPECT_FALSE(wrapper.isProtected(0, 0));
    wrapper.onFill(0, 1, fillCtx(0x040, true));
    wrapper.onInvalidate(0, 1);
    EXPECT_FALSE(wrapper.isProtected(0, 1));
}

TEST(SharingAware, NameComposesWithBase)
{
    auto wrapper = protectOnlyWrapper(1, 2, 8);
    EXPECT_EQ(wrapper.name(), "sa+lru");
}

TEST(SharingAware, RespectsCallerExclusions)
{
    auto wrapper = protectOnlyWrapper(1, 4, 8);
    for (unsigned w = 0; w < 4; ++w)
        wrapper.onFill(0, w, fillCtx(w * 0x40, false));
    // Ways 0 and 1 excluded by the caller.
    const unsigned way = wrapper.victim(0, fillCtx(0x100, false), 0b11);
    EXPECT_GE(way, 2u);
}

TEST(Awareness, ScoresMistakenEvictions)
{
    // Stream: fill A (shared soon), fill B (never again), evict at
    // pos 2 with both resident.
    Trace trace("t", 2);
    trace.append(0x000, 0, 0, false); // A
    trace.append(0x100, 0, 0, false); // B (same set, 4-set cache)
    trace.append(0x200, 0, 0, false); // C forces eviction
    trace.append(0x000, 0, 1, false); // A shared by core 1
    const NextUseIndex index(trace);

    const CacheGeometry geo{512, 2, kBlockBytes}; // 4 sets x 2 ways
    Cache cache("t", geo,
                std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    AwarenessScorer scorer(index, 100);

    cache.fillWay(ReplContext{0x000, 0, 0, false, 0, false});
    cache.fillWay(ReplContext{0x100, 0, 0, false, 1, false});
    // Both residencies so far touched by core 0 alone.
    const WayResidency residency[2] = {{0, 0b1, 0}, {0, 0b1, 0}};
    // LRU victim for the fill of C is A — the shared block, while B
    // (no future use) sits in the set: a sharing-awareness mistake.
    scorer.onEviction(cache, cache.setIndex(0x000), 0, residency, 2);
    EXPECT_EQ(scorer.evictions(), 1u);
    EXPECT_EQ(scorer.sharedVictims(), 1u);
    EXPECT_EQ(scorer.mistakes(), 1u);
    EXPECT_EQ(scorer.mistakesWithDead(), 1u);
    EXPECT_DOUBLE_EQ(scorer.mistakeRate(), 1.0);
    EXPECT_DOUBLE_EQ(scorer.sharedVictimRate(), 1.0);
}

TEST(Awareness, NoMistakeWhenVictimUnshared)
{
    Trace trace("t", 2);
    trace.append(0x000, 0, 0, false);
    trace.append(0x100, 0, 0, false);
    const NextUseIndex index(trace);
    const CacheGeometry geo{512, 2, kBlockBytes};
    Cache cache("t", geo,
                std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    AwarenessScorer scorer(index, 100);
    cache.fillWay(ReplContext{0x000, 0, 0, false, 0, false});
    cache.fillWay(ReplContext{0x100, 0, 0, false, 1, false});
    const WayResidency residency[2] = {{0, 0b1, 0}, {0, 0b1, 0}};
    scorer.onEviction(cache, cache.setIndex(0x000), 0, residency, 2);
    EXPECT_EQ(scorer.sharedVictims(), 0u);
    EXPECT_EQ(scorer.mistakes(), 0u);
}

TEST(StreamSim, LruEndToEnd)
{
    // Two-block working set in a one-set cache of two ways: all hits
    // after the cold misses.
    Trace trace("t", 2);
    const CacheGeometry geo{128, 2, kBlockBytes}; // 1 set x 2 ways
    for (int i = 0; i < 50; ++i)
        trace.append((i % 2) * kBlockBytes, 0x400,
                     static_cast<CoreId>(i % 2), false);
    StreamSim sim(trace, geo,
                  std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    sim.run();
    EXPECT_EQ(sim.misses(), 2u);
    EXPECT_EQ(sim.hits(), 48u);
    EXPECT_NEAR(sim.missRatio(), 2.0 / 50.0, 1e-12);
}

TEST(StreamSim, ScorerSeesPrefetchEvictions)
{
    // A strided single-PC stream trains the prefetcher; its prefetch
    // fills evict blocks from the tiny cache.  Every replacement
    // decision — demand- or prefetch-induced — must reach the scorer,
    // so the scorer's eviction count equals the cache's.
    Trace trace("t", 2);
    const CacheGeometry geo{128, 2, kBlockBytes}; // 1 set x 2 ways
    for (int i = 0; i < 32; ++i)
        trace.append(static_cast<Addr>(i) * kBlockBytes, 0x400, 0,
                     false);
    const NextUseIndex index(trace);

    StreamSim sim(trace, geo,
                  std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    AwarenessScorer scorer(index, 1000);
    sim.setAwarenessScorer(&scorer);
    StridePrefetcher prefetcher;
    sim.setPrefetcher(&prefetcher);
    sim.run();

    ASSERT_GT(prefetcher.issued(), 0u);
    const auto *evictions = dynamic_cast<const stats::Counter *>(
        sim.cache().stats().find("llc.evictions"));
    ASSERT_NE(evictions, nullptr);
    // More evictions than demand misses: some replacements were
    // prefetch-induced (a demand fill can evict at most once a miss).
    EXPECT_GT(evictions->value(), sim.misses());
    // The scorer saw every one of them, not just the demand ones.
    EXPECT_EQ(scorer.evictions(), evictions->value());
}

TEST(StreamSim, TrackerSeesSharedResidencies)
{
    Trace trace("t", 2);
    const CacheGeometry geo{128, 2, kBlockBytes};
    for (int i = 0; i < 50; ++i)
        trace.append(0, 0x400, static_cast<CoreId>(i % 2), false);
    StreamSim sim(trace, geo,
                  std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    SharingTracker tracker(2);
    sim.setSharingTracker(&tracker);
    sim.run();
    EXPECT_EQ(tracker.sharedHits(), 49u);
    EXPECT_EQ(tracker.privateHits(), 0u);
    EXPECT_DOUBLE_EQ(tracker.sharedHitFraction(), 1.0);
}

TEST(StreamSim, OracleWrapperReducesMissesOnCraftedStream)
{
    // One set, two ways.  Pattern: shared block S re-touched by a
    // second core just beyond two private streamers that LRU would
    // keep instead of S.
    Trace trace("t", 2);
    const CacheGeometry geo{128, 2, kBlockBytes};
    Rng rng(3);
    // S touched by core 0, then N streaming blocks, then S by core 1.
    const int rounds = 40;
    for (int round = 0; round < rounds; ++round) {
        trace.append(0x000, 0x400, 0, false); // S
        for (int k = 1; k <= 3; ++k)
            trace.append(static_cast<Addr>(0x1000 + 0x40 * (round * 3 + k)),
                         0x500, 0, false); // one-shot private blocks
        trace.append(0x000, 0x400, 1, false); // S again, other core
    }
    const NextUseIndex index(trace);

    StreamSim plain(trace, geo,
                    std::make_unique<LruPolicy>(geo.numSets(),
                                                geo.ways));
    plain.run();

    OracleLabeler oracle(index, 16);
    auto wrapped = std::make_unique<SharingAwareWrapper>(
        std::make_unique<LruPolicy>(geo.numSets(), geo.ways), 8);
    StreamSim aware(trace, geo, std::move(wrapped));
    aware.setLabeler(&oracle);
    aware.run();

    EXPECT_LT(aware.misses(), plain.misses());
}

TEST(StreamSim, OptNeverWorseThanLru)
{
    Trace trace("t", 2);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        trace.append(rng.below(32) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(2)),
                     rng.chance(0.2));
    const NextUseIndex index(trace);
    const CacheGeometry geo{1024, 4, kBlockBytes}; // 4 sets x 4 ways

    StreamSim lru(trace, geo,
                  std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    lru.run();
    StreamSim opt(trace, geo,
                  std::make_unique<OptPolicy>(geo.numSets(), geo.ways,
                                              index));
    opt.run();
    EXPECT_LE(opt.misses(), lru.misses());
}

} // namespace
} // namespace casim
