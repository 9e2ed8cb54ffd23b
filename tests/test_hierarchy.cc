/**
 * @file
 * Integration tests for the coherent hierarchy: MESI transitions,
 * directory precision, inclusion, writeback flow and stream capture.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "mem/repl/factory.hh"

namespace casim {
namespace {

HierarchyConfig
tinyConfig(unsigned cores = 2)
{
    HierarchyConfig config;
    config.numCores = cores;
    config.l1 = CacheGeometry{1024, 2, kBlockBytes};        // 8 sets
    config.llc = CacheGeometry{8 * 1024, 4, kBlockBytes};   // 32 sets
    config.useDramModel = false; // fixed latency: exact cycle checks
    return config;
}

std::unique_ptr<Hierarchy>
makeHierarchy(unsigned cores = 2)
{
    return std::make_unique<Hierarchy>(tinyConfig(cores),
                                       requirePolicyFactory("lru"));
}

MemAccess
acc(Addr addr, CoreId core, bool write = false)
{
    return makeAccess(addr, 0x400, core, write);
}

/** True iff `cache` holds block_addr with its dirty bit set. */
bool
dirtyIn(const Cache &cache, Addr block_addr)
{
    const unsigned set = cache.setIndex(block_addr);
    const unsigned way = cache.findWay(set, block_addr);
    return way != cache.geometry().ways && cache.dirtyAt(set, way);
}

std::uint64_t
counterValue(const Hierarchy &h, const char *name)
{
    const auto *stat =
        h.stats().find(std::string("hierarchy.") + name);
    const auto *ctr = dynamic_cast<const stats::Counter *>(stat);
    return ctr == nullptr ? 0 : ctr->value();
}

TEST(Hierarchy, ReadMissFillsExclusive)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    ASSERT_TRUE(h->l1(0).contains(0x1000));
    EXPECT_EQ(h->l1State(0, 0x1000), MesiState::Exclusive);
    const LlcRecord *llc = h->llcRecord(0x1000);
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->sharers, 0b01u);
}

TEST(Hierarchy, SecondReaderDowngradesToShared)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    h->access(acc(0x1000, 1));
    EXPECT_EQ(h->l1State(0, 0x1000), MesiState::Shared);
    EXPECT_EQ(h->l1State(1, 0x1000), MesiState::Shared);
    EXPECT_EQ(h->llcRecord(0x1000)->sharers, 0b11u);
    EXPECT_EQ(counterValue(*h, "interventions"), 1u);
}

TEST(Hierarchy, WriteMissFillsModified)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0, true));
    EXPECT_EQ(h->l1State(0, 0x1000), MesiState::Modified);
    EXPECT_TRUE(dirtyIn(h->l1(0), 0x1000));
}

TEST(Hierarchy, SilentExclusiveToModified)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));       // E
    const auto llc_before = h->llcSeq();
    h->access(acc(0x1000, 0, true)); // silent E -> M
    EXPECT_EQ(h->l1State(0, 0x1000), MesiState::Modified);
    EXPECT_EQ(h->llcSeq(), llc_before); // no LLC transaction
    EXPECT_EQ(counterValue(*h, "upgrades"), 0u);
}

TEST(Hierarchy, SharedToModifiedUpgradeInvalidatesPeers)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));       // core 0: E
    h->access(acc(0x1000, 1));       // both S
    h->access(acc(0x1000, 0, true)); // core 0 upgrades
    EXPECT_EQ(h->l1State(0, 0x1000), MesiState::Modified);
    EXPECT_FALSE(h->l1(1).contains(0x1000));
    EXPECT_EQ(h->llcRecord(0x1000)->sharers, 0b01u);
    EXPECT_EQ(counterValue(*h, "upgrades"), 1u);
    EXPECT_EQ(counterValue(*h, "invalidations_sent"), 1u);
}

TEST(Hierarchy, WriteMissInvalidatesModifiedOwner)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0, true)); // core 0: M
    h->access(acc(0x1000, 1, true)); // core 1 takes ownership
    EXPECT_FALSE(h->l1(0).contains(0x1000));
    EXPECT_EQ(h->l1State(1, 0x1000), MesiState::Modified);
    // Core 0's dirty data flowed into the LLC.
    EXPECT_TRUE(dirtyIn(h->llc(), 0x1000));
}

TEST(Hierarchy, ReadAfterRemoteWritePullsDirtyData)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0, true)); // core 0: M
    h->access(acc(0x1000, 1));       // core 1 reads
    EXPECT_EQ(h->l1State(0, 0x1000), MesiState::Shared);
    EXPECT_EQ(h->l1State(1, 0x1000), MesiState::Shared);
    ASSERT_TRUE(h->l1(0).contains(0x1000));
    EXPECT_FALSE(dirtyIn(h->l1(0), 0x1000));
    EXPECT_TRUE(dirtyIn(h->llc(), 0x1000));
    EXPECT_EQ(counterValue(*h, "interventions"), 1u);
}

TEST(Hierarchy, L1EvictionWritesBackAndUpdatesDirectory)
{
    auto h = makeHierarchy();
    // Fill both ways of core 0's L1 set 0, then force an eviction.
    // L1 has 8 sets; blocks 0x0000, 0x2000, 0x4000 map to set 0.
    h->access(acc(0x0000, 0, true));
    h->access(acc(0x2000, 0));
    h->access(acc(0x4000, 0)); // evicts 0x0000 (LRU, dirty M)
    EXPECT_FALSE(h->l1(0).contains(0x0000));
    const LlcRecord *llc = h->llcRecord(0x0000);
    ASSERT_NE(llc, nullptr);
    EXPECT_TRUE(dirtyIn(h->llc(), 0x0000));
    EXPECT_EQ(llc->sharers, 0u);
    EXPECT_EQ(counterValue(*h, "l1_writebacks"), 1u);
}

TEST(Hierarchy, LlcEvictionBackInvalidatesL1)
{
    // Give the L1 4 ways so the victim block is still L1-resident
    // when the LLC evicts it.
    HierarchyConfig config = tinyConfig();
    config.l1 = CacheGeometry{2048, 4, kBlockBytes}; // 8 sets x 4 ways
    auto h = std::make_unique<Hierarchy>(config,
                                         requirePolicyFactory("lru"));
    // LLC has 32 sets x 4 ways.  Five blocks in LLC set 0:
    // stride = 32 * 64 = 0x800 (also all in L1 set 0).
    for (int i = 0; i < 5; ++i)
        h->access(acc(static_cast<Addr>(i) * 0x800, 0));
    // The first block was evicted from the LLC and must be gone from
    // the L1 too (inclusion).
    EXPECT_FALSE(h->llc().contains(0x0000));
    EXPECT_EQ(h->llcRecord(0x0000), nullptr);
    EXPECT_FALSE(h->l1(0).contains(0x0000));
    EXPECT_GE(counterValue(*h, "back_invalidations"), 1u);
}

TEST(Hierarchy, MemoryTrafficCounted)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    h->access(acc(0x2000, 0));
    EXPECT_EQ(counterValue(*h, "mem_reads"), 2u);
}

TEST(Hierarchy, L1HitsFilterLlc)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    const auto llc_accesses = h->llc().demandAccesses();
    for (int i = 0; i < 10; ++i)
        h->access(acc(0x1000, 0));
    EXPECT_EQ(h->llc().demandAccesses(), llc_accesses);
    EXPECT_EQ(h->l1(0).demandHits(), 10u);
}

TEST(Hierarchy, CaptureRecordsLlcStream)
{
    auto h = makeHierarchy();
    Trace captured("cap", 2);
    h->setCaptureTrace(&captured);
    h->access(acc(0x1000, 0));        // LLC miss -> captured
    h->access(acc(0x1000, 0));        // L1 hit -> not captured
    h->access(acc(0x1000, 1));        // L1 miss, LLC hit -> captured
    h->access(acc(0x1000, 1, true));  // S->M upgrade -> captured
    ASSERT_EQ(captured.size(), 3u);
    EXPECT_EQ(captured[0].core, 0);
    EXPECT_FALSE(captured[0].isWrite);
    EXPECT_EQ(captured[1].core, 1);
    EXPECT_TRUE(captured[2].isWrite);
    EXPECT_EQ(h->llcSeq(), 3u);
}

TEST(Hierarchy, UpgradeCountsAsLlcWriteHit)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    h->access(acc(0x1000, 1));
    const auto hits_before = h->llc().demandHits();
    h->access(acc(0x1000, 0, true)); // upgrade
    EXPECT_EQ(h->llc().demandHits(), hits_before + 1);
    // The LLC block saw the write during this residency.
    EXPECT_TRUE(h->llcRecord(0x1000)->written);
}

TEST(Hierarchy, SharerMaskAccumulatesInLlcBlock)
{
    auto h = makeHierarchy(4);
    h->access(acc(0x1000, 0));
    h->access(acc(0x1000, 2));
    h->access(acc(0x1000, 3));
    const LlcRecord *llc = h->llcRecord(0x1000);
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->touchedMask, 0b1101u);
    EXPECT_EQ(popCount(llc->touchedMask), 3u);
    EXPECT_EQ(classifyResidency(llc->touchedMask, llc->written),
              SharingClass::SharedReadOnly);
}

TEST(Hierarchy, CyclesAccumulate)
{
    auto h = makeHierarchy();
    const HierarchyConfig &config = h->config();
    h->access(acc(0x1000, 0)); // L1 miss + LLC miss + memory
    EXPECT_EQ(h->cycles(), config.l1Latency + config.llcLatency +
                               config.memLatency);
    h->access(acc(0x1000, 0)); // L1 hit
    EXPECT_EQ(h->cycles(), 2 * config.l1Latency + config.llcLatency +
                               config.memLatency);
}

TEST(Hierarchy, RunWholeTrace)
{
    auto h = makeHierarchy();
    Trace trace("t", 2);
    for (int i = 0; i < 100; ++i)
        trace.append(static_cast<Addr>(i % 10) * kBlockBytes, 0x400,
                     static_cast<CoreId>(i % 2), i % 7 == 0);
    h->run(trace);
    h->finish();
    EXPECT_EQ(h->accesses(), 100u);
    EXPECT_EQ(h->llc().validBlocks(), 0u); // flushed
    // Every residency, including the ones finish() ended, reached the
    // sharing tracker, and every hit was attributed to one of them.
    EXPECT_EQ(h->sharing().totalHits(), h->llc().demandHits());
    EXPECT_EQ(h->sharing().misses(), h->llc().demandMisses());
    EXPECT_EQ(h->sharing().sharedResidencies() +
                  h->sharing().privateResidencies(),
              h->llc().demandMisses());
}

// Property test: the directory exactly tracks which L1s hold each
// LLC-resident block, under a random multicore access pattern.
TEST(HierarchyProperty, DirectoryStaysPrecise)
{
    auto h = makeHierarchy(4);
    Rng rng(555);
    for (int i = 0; i < 20000; ++i) {
        h->access(acc(rng.below(256) * kBlockBytes,
                      static_cast<CoreId>(rng.below(4)),
                      rng.chance(0.3)));
        if (i % 500 != 0)
            continue;
        // Audit: every LLC block's sharer mask matches L1 contents.
        const auto &llc = h->llc();
        for (unsigned set = 0; set < llc.geometry().numSets(); ++set) {
            for (unsigned way = 0; way < llc.geometry().ways; ++way) {
                if (((llc.validWays(set) >> way) & 1) == 0)
                    continue;
                const Addr block = llc.tagAt(set, way);
                std::uint64_t actual = 0;
                for (unsigned core = 0; core < 4; ++core) {
                    if (h->l1(core).contains(block) &&
                        h->l1State(core, block) != MesiState::Invalid)
                        actual |= 1ULL << core;
                }
                const LlcRecord *record = h->llcRecord(block);
                ASSERT_NE(record, nullptr);
                ASSERT_EQ(record->sharers, actual)
                    << "block " << std::hex << block;
            }
        }
        // Inclusion audit: every valid L1 block exists in the LLC.
        for (unsigned core = 0; core < 4; ++core) {
            const auto &l1 = h->l1(core);
            for (unsigned set = 0; set < l1.geometry().numSets();
                 ++set) {
                for (unsigned way = 0; way < l1.geometry().ways;
                     ++way) {
                    if ((l1.validWays(set) >> way) & 1) {
                        ASSERT_TRUE(h->llc().contains(l1.tagAt(set, way)));
                    }
                }
            }
        }
    }
}

// Property test: at most one L1 holds a block in M/E, and M/E implies
// no other sharers.
TEST(HierarchyProperty, SingleWriterInvariant)
{
    auto h = makeHierarchy(4);
    Rng rng(777);
    for (int i = 0; i < 20000; ++i) {
        h->access(acc(rng.below(128) * kBlockBytes,
                      static_cast<CoreId>(rng.below(4)),
                      rng.chance(0.4)));
        if (i % 500 != 0)
            continue;
        for (Addr block = 0; block < 128 * kBlockBytes;
             block += kBlockBytes) {
            unsigned holders = 0, owners = 0;
            for (unsigned core = 0; core < 4; ++core) {
                if (!h->l1(core).contains(block))
                    continue;
                ++holders;
                const MesiState state = h->l1State(core, block);
                if (state == MesiState::Modified ||
                    state == MesiState::Exclusive)
                    ++owners;
            }
            ASSERT_LE(owners, 1u);
            if (owners == 1) {
                ASSERT_EQ(holders, 1u);
            }
        }
    }
}

} // namespace
} // namespace casim
