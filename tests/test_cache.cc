/**
 * @file
 * Unit tests for the set-associative cache tag store.
 */

#include <sstream>

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
    auto cache = std::make_unique<Cache>(
        "test", geo,
        std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    cache->allocatePayload();
    return cache;
}

ReplContext
ctxFor(Addr addr, CoreId core = 0, bool write = false, SeqNo seq = 0,
       PC pc = 0x400)
{
    return ReplContext{blockAlign(addr), pc, core, write, seq, false};
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
    EXPECT_EQ(cache->access(ctxFor(0x1000)), nullptr);
    cache->fill(ctxFor(0x1000));
    EXPECT_NE(cache->access(ctxFor(0x1000)), nullptr);
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
    cache->fill(ctxFor(0x1000));
    EXPECT_NE(cache->probe(0x1000), nullptr);
    EXPECT_EQ(cache->probe(0x2000), nullptr);
    EXPECT_EQ(cache->demandHits(), 0u);
    const auto *block = cache->probe(0x1000);
    EXPECT_EQ(block->hitsDuringResidency, 0u);
}

TEST(Cache, FillsInvalidWaysFirst)
{
    auto cache = makeTinyCache();
    cache->fill(ctxFor(0x000)); // set 0
    cache->fill(ctxFor(0x100)); // set 0, second way
    EXPECT_EQ(cache->validBlocks(), 2u);
    EXPECT_NE(cache->probe(0x000), nullptr);
    EXPECT_NE(cache->probe(0x100), nullptr);
}

TEST(Cache, EvictsLruVictim)
{
    auto cache = makeTinyCache();
    cache->access(ctxFor(0x000));
    cache->fill(ctxFor(0x000)); // set 0
    cache->access(ctxFor(0x100));
    cache->fill(ctxFor(0x100)); // set 0
    cache->access(ctxFor(0x000)); // touch 0x000: 0x100 becomes LRU

    Addr victim_addr = 0;
    unsigned victim_set = 99, victim_way = 99;
    cache->access(ctxFor(0x200));
    cache->fill(ctxFor(0x200), [&](unsigned set, unsigned way) {
        victim_addr = cache->blockAt(set, way).addr;
        victim_set = set;
        victim_way = way;
    });
    EXPECT_EQ(victim_addr, 0x100u);
    // The handler's set/way name the victim slot directly; no pointer
    // arithmetic on the victim reference is needed.
    EXPECT_EQ(victim_set, cache->setIndex(0x100));
    EXPECT_EQ(&cache->blockAt(victim_set, victim_way),
              cache->probe(0x200));
    EXPECT_EQ(cache->probe(0x100), nullptr);
    EXPECT_NE(cache->probe(0x000), nullptr);
}

TEST(Cache, ResidencyInstrumentation)
{
    auto cache = makeTinyCache();
    cache->fill(ctxFor(0x1000, 0, false, 7, 0xabc));
    const CacheBlock *block = cache->probe(0x1000);
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(block->fillSeq, 7u);
    EXPECT_EQ(block->fillPC, 0xabcu);
    EXPECT_EQ(block->fillCore, 0);
    EXPECT_EQ(block->touchedMask, 1ULL);
    EXPECT_FALSE(block->writtenDuringResidency);
    EXPECT_FALSE(block->sharedThisResidency());

    cache->access(ctxFor(0x1000, 2, true));
    EXPECT_EQ(block->touchedMask, 0b101ULL);
    EXPECT_TRUE(block->writtenDuringResidency);
    EXPECT_TRUE(block->sharedThisResidency());
    EXPECT_EQ(block->hitsDuringResidency, 1u);
    EXPECT_EQ(block->touchedCores(), 2u);
}

TEST(Cache, InvalidateRemovesBlock)
{
    auto cache = makeTinyCache();
    cache->fill(ctxFor(0x1000));
    EXPECT_TRUE(cache->invalidate(0x1000));
    EXPECT_EQ(cache->probe(0x1000), nullptr);
    EXPECT_FALSE(cache->invalidate(0x1000));
    EXPECT_EQ(cache->validBlocks(), 0u);
}

TEST(Cache, DirtyTracking)
{
    auto cache = makeTinyCache();
    cache->fill(ctxFor(0x000, 0, true)); // write fill -> dirty
    EXPECT_TRUE(cache->probe(0x000)->dirty);
    cache->fill(ctxFor(0x040, 0, false));
    EXPECT_FALSE(cache->probe(0x040)->dirty);
}

struct RecordingObserver : public CacheObserver
{
    unsigned hits = 0, misses = 0, fills = 0, residencies = 0;
    std::uint64_t lastResidencyHits = 0;
    bool lastWasShared = false;

    void
    onHit(const CacheBlock &, const ReplContext &) override
    {
        ++hits;
    }
    void onMiss(const ReplContext &) override { ++misses; }
    void
    onFill(const CacheBlock &, const ReplContext &) override
    {
        ++fills;
    }
    void
    onResidencyEnd(const CacheBlock &block) override
    {
        ++residencies;
        lastResidencyHits = block.hitsDuringResidency;
        lastWasShared = block.sharedThisResidency();
    }
};

TEST(Cache, ObserverSeesLifecycle)
{
    auto cache = makeTinyCache();
    RecordingObserver observer;
    cache->setObserver(&observer);

    cache->access(ctxFor(0x000));
    cache->fill(ctxFor(0x000));
    cache->access(ctxFor(0x000, 1));
    cache->access(ctxFor(0x000, 1));
    cache->invalidate(0x000);

    EXPECT_EQ(observer.misses, 1u);
    EXPECT_EQ(observer.fills, 1u);
    EXPECT_EQ(observer.hits, 2u);
    EXPECT_EQ(observer.residencies, 1u);
    EXPECT_EQ(observer.lastResidencyHits, 2u);
    EXPECT_TRUE(observer.lastWasShared);
}

TEST(Cache, FlushReportsAllResidencies)
{
    auto cache = makeTinyCache();
    RecordingObserver observer;
    cache->setObserver(&observer);
    cache->fill(ctxFor(0x000));
    cache->fill(ctxFor(0x040));
    cache->fill(ctxFor(0x080));
    cache->flushResidencies();
    EXPECT_EQ(observer.residencies, 3u);
    EXPECT_EQ(cache->validBlocks(), 0u);
}

TEST(Cache, StatsCounters)
{
    auto cache = makeTinyCache();
    cache->access(ctxFor(0x000, 0, true)); // write miss
    cache->fill(ctxFor(0x000, 0, true));
    cache->access(ctxFor(0x000, 0, true)); // write hit
    cache->access(ctxFor(0x000, 0, false)); // read hit

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
// never exceeds capacity and every resident block is found by probe.
TEST(CacheProperty, OccupancyBounded)
{
    auto cache = makeTinyCache();
    Rng rng(31);
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.below(64) * kBlockBytes;
        const auto ctx = ctxFor(addr, static_cast<CoreId>(rng.below(4)),
                                rng.chance(0.3), i);
        if (cache->access(ctx) == nullptr)
            cache->fill(ctx);
        ASSERT_LE(cache->validBlocks(), 8u);
        ASSERT_NE(cache->probe(blockAlign(addr)), nullptr);
    }
    EXPECT_EQ(cache->demandAccesses(), 5000u);
}

std::unique_ptr<Cache>
makeLeanCache()
{
    const CacheGeometry geo = tinyGeometry();
    return std::make_unique<Cache>(
        "test", geo,
        std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
}

TEST(Cache, StartsLeanUntilAskedForThePayload)
{
    auto cache = makeLeanCache();
    EXPECT_FALSE(cache->hasPayload());
    cache->allocatePayload();
    EXPECT_TRUE(cache->hasPayload());
    cache->allocatePayload(); // idempotent
    EXPECT_TRUE(cache->hasPayload());
}

// The lean tag store makes every replacement decision the payload
// cache makes: same hit ways, same install ways, same counters —
// including dirty evictions, counted from the dirty bitmap alone.
TEST(Cache, LeanCacheTracksThePayloadCache)
{
    auto lean = makeLeanCache();
    auto full = makeTinyCache();
    Rng rng(37);
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.below(64) * kBlockBytes;
        const auto ctx = ctxFor(addr, static_cast<CoreId>(rng.below(4)),
                                rng.chance(0.3), i);
        if (rng.chance(0.05)) {
            ASSERT_EQ(lean->invalidate(ctx.blockAddr),
                      full->invalidate(ctx.blockAddr));
            continue;
        }
        const unsigned way = lean->accessWay(ctx);
        ASSERT_EQ(way, full->accessWay(ctx));
        if (way == lean->geometry().ways) {
            ASSERT_EQ(lean->fillWay(ctx), full->fillWay(ctx));
        }
        ASSERT_EQ(lean->validBlocks(), full->validBlocks());
    }
    lean->flushResidencies();
    full->flushResidencies();
    EXPECT_EQ(lean->validBlocks(), 0u);
    EXPECT_FALSE(lean->hasPayload());
    std::ostringstream lean_json, full_json;
    lean->stats().dumpJson(lean_json);
    full->stats().dumpJson(full_json);
    EXPECT_EQ(lean_json.str(), full_json.str());
    const auto dirty = stats::counterValue(
        lean->stats().find("test.dirty_evictions"));
    ASSERT_TRUE(dirty.has_value());
    EXPECT_GT(*dirty, 0u);

    // After the flush the lean cache is empty again: refills miss.
    EXPECT_EQ(lean->accessWay(ctxFor(0x000)), lean->geometry().ways);
}

// A victim handler gets the victim's (set, way) while the way is
// still resident, so the lean accessors describe the victim.
TEST(Cache, LeanVictimHandlerSeesTheResidentVictim)
{
    auto cache = makeLeanCache();
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
    EXPECT_FALSE(cache->hasPayload());
    EXPECT_EQ(victim_addr, 0x000u);
    EXPECT_TRUE(victim_dirty);
    EXPECT_EQ(victim_set, cache->setIndex(0x000));
    EXPECT_EQ(victim_way, way);
    EXPECT_EQ(cache->tagAt(victim_set, way), 0x200u);
    EXPECT_FALSE(cache->dirtyAt(victim_set, way));
    EXPECT_FALSE(cache->contains(0x000));

    // setDirtyAt and invalidateWay work on the lean tag store too.
    cache->setDirtyAt(victim_set, way, true);
    EXPECT_TRUE(cache->dirtyAt(victim_set, way));
    EXPECT_EQ(cache->validWays(victim_set), 0b11u);
    cache->invalidateWay(victim_set, way);
    EXPECT_FALSE(cache->contains(0x200));
    EXPECT_EQ(cache->tagAt(victim_set, way), kAddrInvalid);
    EXPECT_EQ(cache->validWays(victim_set), 0b11u & ~(1u << way));
}

TEST(CacheDeathTest, LeanCacheRefusesBlockAccess)
{
    auto cache = makeLeanCache();
    cache->fillWay(ctxFor(0x000));
    EXPECT_DEATH(cache->access(ctxFor(0x000)), "lean cache");
    EXPECT_DEATH(cache->fill(ctxFor(0x040)), "lean cache");
    EXPECT_DEATH(cache->probe(0x000), "lean cache");
    RecordingObserver observer;
    EXPECT_DEATH(cache->setObserver(&observer), "lean cache");
    // The payload cannot appear under resident blocks.
    EXPECT_DEATH(cache->allocatePayload(), "non-empty");
#ifdef CASIM_PARANOID
    EXPECT_DEATH(cache->blockAt(0, 0), "lean cache");
#endif
}

} // namespace
} // namespace casim
