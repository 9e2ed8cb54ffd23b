/**
 * @file
 * Unit tests for the set-associative cache tag store.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/repl/lru.hh"

namespace casim {
namespace {

CacheGeometry
tinyGeometry()
{
    // 4 sets x 2 ways x 64 B = 512 B.
    return CacheGeometry{512, 2, kBlockBytes};
}

std::unique_ptr<Cache>
makeTinyCache()
{
    const CacheGeometry geo = tinyGeometry();
    return std::make_unique<Cache>(
        "test", geo,
        std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
}

ReplContext
ctxFor(Addr addr, CoreId core = 0, bool write = false, SeqNo seq = 0,
       PC pc = 0x400)
{
    return ReplContext{blockAlign(addr), pc, core, write, seq, false};
}

/** A demand access that fills on a miss; true iff it hit. */
bool
accessOrFill(Cache &cache, const ReplContext &ctx)
{
    if (cache.accessWay(ctx) != cache.geometry().ways)
        return true;
    cache.fillWay(ctx);
    return false;
}

TEST(CacheGeometry, DerivedValues)
{
    const CacheGeometry geo = tinyGeometry();
    EXPECT_EQ(geo.numSets(), 4u);
    geo.check(); // must not die
}

TEST(CacheGeometry, PaperLlcGeometry)
{
    const CacheGeometry geo{4ULL * 1024 * 1024, 16, 64};
    EXPECT_EQ(geo.numSets(), 4096u);
    geo.check();
}

TEST(Cache, MissThenHit)
{
    auto cache = makeTinyCache();
    const unsigned ways = cache->geometry().ways;
    EXPECT_EQ(cache->accessWay(ctxFor(0x1000)), ways);
    const unsigned way = cache->fillWay(ctxFor(0x1000));
    EXPECT_EQ(cache->accessWay(ctxFor(0x1000)), way);
    EXPECT_EQ(cache->demandHits(), 1u);
    EXPECT_EQ(cache->demandMisses(), 1u);
}

TEST(Cache, SetIndexUsesLowBits)
{
    auto cache = makeTinyCache();
    EXPECT_EQ(cache->setIndex(0x000), 0u);
    EXPECT_EQ(cache->setIndex(0x040), 1u);
    EXPECT_EQ(cache->setIndex(0x0c0), 3u);
    EXPECT_EQ(cache->setIndex(0x100), 0u); // wraps
}

TEST(Cache, ProbeDoesNotTouchState)
{
    auto cache = makeTinyCache();
    cache->fillWay(ctxFor(0x000)); // set 0
    cache->fillWay(ctxFor(0x100)); // set 0: 0x000 is now LRU
    EXPECT_TRUE(cache->contains(0x000));
    EXPECT_FALSE(cache->contains(0x200));
    EXPECT_EQ(cache->findWay(0, 0x000), 0u);
    EXPECT_EQ(cache->demandAccesses(), 0u);
    // The lookups above left the recency order alone: the next fill
    // of set 0 still evicts 0x000.
    cache->fillWay(ctxFor(0x200));
    EXPECT_FALSE(cache->contains(0x000));
    EXPECT_TRUE(cache->contains(0x100));
}

TEST(Cache, FillsInvalidWaysFirst)
{
    auto cache = makeTinyCache();
    EXPECT_EQ(cache->fillWay(ctxFor(0x000)), 0u); // set 0
    EXPECT_EQ(cache->fillWay(ctxFor(0x100)), 1u); // set 0, second way
    EXPECT_EQ(cache->validBlocks(), 2u);
    EXPECT_TRUE(cache->contains(0x000));
    EXPECT_TRUE(cache->contains(0x100));
}

TEST(Cache, EvictsLruVictim)
{
    auto cache = makeTinyCache();
    accessOrFill(*cache, ctxFor(0x000)); // set 0
    accessOrFill(*cache, ctxFor(0x100)); // set 0
    cache->accessWay(ctxFor(0x000)); // touch 0x000: 0x100 becomes LRU

    Addr victim_addr = 0;
    unsigned victim_set = 99, victim_way = 99;
    cache->accessWay(ctxFor(0x200));
    const unsigned way =
        cache->fillWay(ctxFor(0x200), [&](unsigned set, unsigned w) {
            victim_addr = cache->tagAt(set, w);
            victim_set = set;
            victim_way = w;
        });
    EXPECT_EQ(victim_addr, 0x100u);
    // The handler's set/way name the victim slot, which the fill
    // then reuses.
    EXPECT_EQ(victim_set, cache->setIndex(0x100));
    EXPECT_EQ(victim_way, way);
    EXPECT_EQ(cache->tagAt(victim_set, victim_way), 0x200u);
    EXPECT_FALSE(cache->contains(0x100));
    EXPECT_TRUE(cache->contains(0x000));
}

TEST(Cache, InvalidateRemovesBlock)
{
    auto cache = makeTinyCache();
    cache->fillWay(ctxFor(0x1000));
    EXPECT_TRUE(cache->invalidate(0x1000));
    EXPECT_FALSE(cache->contains(0x1000));
    EXPECT_FALSE(cache->invalidate(0x1000));
    EXPECT_EQ(cache->validBlocks(), 0u);
    const auto invalidations = stats::counterValue(
        cache->stats().find("test.ext_invalidations"));
    ASSERT_TRUE(invalidations.has_value());
    EXPECT_EQ(*invalidations, 1u);
}

TEST(Cache, DirtyTracking)
{
    auto cache = makeTinyCache();
    const unsigned dirty = cache->fillWay(ctxFor(0x000, 0, true));
    EXPECT_TRUE(cache->dirtyAt(cache->setIndex(0x000), dirty));
    const unsigned clean = cache->fillWay(ctxFor(0x040, 0, false));
    EXPECT_FALSE(cache->dirtyAt(cache->setIndex(0x040), clean));
}

TEST(Cache, StatsCounters)
{
    auto cache = makeTinyCache();
    accessOrFill(*cache, ctxFor(0x000, 0, true)); // write miss
    cache->accessWay(ctxFor(0x000, 0, true));     // write hit
    cache->accessWay(ctxFor(0x000, 0, false));    // read hit

    const auto *wh = dynamic_cast<const stats::Counter *>(
        cache->stats().find("test.write_hits"));
    const auto *wm = dynamic_cast<const stats::Counter *>(
        cache->stats().find("test.write_misses"));
    ASSERT_NE(wh, nullptr);
    ASSERT_NE(wm, nullptr);
    EXPECT_EQ(wh->value(), 1u);
    EXPECT_EQ(wm->value(), 1u);
    EXPECT_EQ(cache->demandAccesses(), 3u);
}

// Property test: after any access pattern the number of valid blocks
// never exceeds capacity and every accessed block is resident.
TEST(CacheProperty, OccupancyBounded)
{
    auto cache = makeTinyCache();
    Rng rng(31);
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.below(64) * kBlockBytes;
        const auto ctx = ctxFor(addr, static_cast<CoreId>(rng.below(4)),
                                rng.chance(0.3), i);
        accessOrFill(*cache, ctx);
        ASSERT_LE(cache->validBlocks(), 8u);
        ASSERT_TRUE(cache->contains(blockAlign(addr)));
    }
    EXPECT_EQ(cache->demandAccesses(), 5000u);
    cache->flushResidencies();
    EXPECT_EQ(cache->validBlocks(), 0u);
    // After the flush the cache is empty again: refills miss.
    EXPECT_EQ(cache->accessWay(ctxFor(0x000)), cache->geometry().ways);
}

// A victim handler gets the victim's (set, way) while the way is
// still resident, so the tag accessors describe the victim.
TEST(Cache, LeanVictimHandlerSeesTheResidentVictim)
{
    auto cache = makeTinyCache();
    cache->fillWay(ctxFor(0x000, 0, true)); // set 0, dirty
    cache->fillWay(ctxFor(0x100));          // set 0
    EXPECT_TRUE(cache->contains(0x000));
    EXPECT_FALSE(cache->contains(0x200));

    Addr victim_addr = kAddrInvalid;
    bool victim_dirty = false;
    unsigned victim_set = 99, victim_way = 99;
    // Set 0 (two ways) overflows on the third fill; LRU picks 0x000.
    const unsigned way =
        cache->fillWay(ctxFor(0x200), [&](unsigned set, unsigned w) {
            victim_addr = cache->tagAt(set, w);
            victim_dirty = cache->dirtyAt(set, w);
            victim_set = set;
            victim_way = w;
        });
    EXPECT_EQ(victim_addr, 0x000u);
    EXPECT_TRUE(victim_dirty);
    EXPECT_EQ(victim_set, cache->setIndex(0x000));
    EXPECT_EQ(victim_way, way);
    EXPECT_EQ(cache->tagAt(victim_set, way), 0x200u);
    EXPECT_FALSE(cache->dirtyAt(victim_set, way));
    EXPECT_FALSE(cache->contains(0x000));
    const auto dirty_evictions = stats::counterValue(
        cache->stats().find("test.dirty_evictions"));
    ASSERT_TRUE(dirty_evictions.has_value());
    EXPECT_EQ(*dirty_evictions, 1u);

    // setDirtyAt and invalidateWay work on the resident block.
    cache->setDirtyAt(victim_set, way, true);
    EXPECT_TRUE(cache->dirtyAt(victim_set, way));
    EXPECT_EQ(cache->validWays(victim_set), 0b11u);
    cache->invalidateWay(victim_set, way);
    EXPECT_FALSE(cache->contains(0x200));
    EXPECT_EQ(cache->tagAt(victim_set, way), kAddrInvalid);
    EXPECT_EQ(cache->validWays(victim_set), 0b11u & ~(1u << way));
}

} // namespace
} // namespace casim
