/**
 * @file
 * Tests for the workload-generator substrate: address space, pattern
 * primitives, and structural properties of every application model.
 */

#include <gtest/gtest.h>

#include "wgen/pattern.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

TEST(AddressSpace, AllocationsAreDisjoint)
{
    AddressSpace mem;
    const Region a = mem.allocate(1000, "a");
    const Region b = mem.allocate(2000, "b");
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_EQ(a.bytes % kBlockBytes, 0u);
    EXPECT_EQ(b.bytes % kBlockBytes, 0u);
    EXPECT_EQ(mem.regions().size(), 2u);
    EXPECT_EQ(mem.allocatedBytes(), a.bytes + b.bytes);
}

TEST(AddressSpace, RegionBlockAddressing)
{
    AddressSpace mem;
    const Region region = mem.allocateBlocks(10, "r");
    EXPECT_EQ(region.blocks(), 10u);
    EXPECT_EQ(region.blockAddr(0), region.base);
    EXPECT_EQ(region.blockAddr(9), region.base + 9 * kBlockBytes);
    EXPECT_TRUE(region.contains(region.blockAddr(9)));
    EXPECT_FALSE(region.contains(region.base + region.bytes));
}

TEST(AddressSpace, SliceStaysInside)
{
    AddressSpace mem;
    const Region region = mem.allocateBlocks(100, "r");
    const Region slice = region.slice(10, 5, "s");
    EXPECT_EQ(slice.blocks(), 5u);
    EXPECT_EQ(slice.base, region.blockAddr(10));
    EXPECT_TRUE(region.contains(slice.blockAddr(4)));
}

TEST(PhaseBuilder, InterleavingPreservesProgramOrder)
{
    PhaseBuilder phase(2);
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        phase.emit(0, static_cast<Addr>(i) * kBlockBytes, 0x100, false);
        phase.emit(1, static_cast<Addr>(1000 + i) * kBlockBytes, 0x200,
                   false);
    }
    EXPECT_EQ(phase.totalSize(), 100u);
    Trace trace("t", 2);
    phase.interleaveInto(trace, rng);
    EXPECT_EQ(trace.size(), 100u);

    // Per-core subsequences must appear in emission order.
    Addr expect0 = 0, expect1 = 1000 * kBlockBytes;
    for (const auto &access : trace) {
        if (access.core == 0) {
            EXPECT_EQ(access.blockAddr(), expect0);
            expect0 += kBlockBytes;
        } else {
            EXPECT_EQ(access.blockAddr(), expect1);
            expect1 += kBlockBytes;
        }
    }
}

TEST(PhaseBuilder, InterleavingMixesThreads)
{
    PhaseBuilder phase(2);
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        phase.emit(0, 0, 0x100, false);
        phase.emit(1, kBlockBytes, 0x200, false);
    }
    Trace trace("t", 2);
    phase.interleaveInto(trace, rng);
    // Count core switches; a perfect block split would have 1.
    unsigned switches = 0;
    for (std::size_t i = 1; i < trace.size(); ++i)
        switches += trace[i].core != trace[i - 1].core ? 1 : 0;
    EXPECT_GT(switches, 50u);
}

TEST(PhaseBuilder, ClearsAfterInterleave)
{
    PhaseBuilder phase(2);
    Rng rng(3);
    phase.emit(0, 0, 0, false);
    Trace trace("t", 2);
    phase.interleaveInto(trace, rng);
    EXPECT_EQ(phase.totalSize(), 0u);
    phase.interleaveInto(trace, rng); // empty: no-op
    EXPECT_EQ(trace.size(), 1u);
}

TEST(Patterns, StreamWalksSequentially)
{
    PhaseBuilder phase(1);
    Rng rng(4);
    AddressSpace mem;
    const Region region = mem.allocateBlocks(8, "r");
    emitStream(phase, 0, region, 0x100, 16, 0.0, rng);
    Trace trace("t", 1);
    phase.interleaveInto(trace, rng);
    ASSERT_EQ(trace.size(), 16u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(trace[i].blockAddr(), region.blockAddr(i % 8));
}

TEST(Patterns, StreamWriteFraction)
{
    PhaseBuilder phase(1);
    Rng rng(5);
    AddressSpace mem;
    const Region region = mem.allocateBlocks(64, "r");
    emitStream(phase, 0, region, 0x100, 10000, 0.3, rng);
    Trace trace("t", 1);
    phase.interleaveInto(trace, rng);
    EXPECT_NEAR(trace.writeFraction(), 0.3, 0.03);
}

TEST(Patterns, RandomStaysInRegion)
{
    PhaseBuilder phase(1);
    Rng rng(6);
    AddressSpace mem;
    const Region region = mem.allocateBlocks(32, "r");
    emitRandom(phase, 0, region, 0x100, 1000, 0.5, rng);
    Trace trace("t", 1);
    phase.interleaveInto(trace, rng);
    for (const auto &access : trace)
        EXPECT_TRUE(region.contains(access.blockAddr()));
}

TEST(Patterns, ChaseVisitsManyBlocksWithoutImmediateRepeats)
{
    PhaseBuilder phase(1);
    Rng rng(7);
    AddressSpace mem;
    const Region region = mem.allocateBlocks(64, "r");
    emitChase(phase, 0, region, 0x100, 64, 0.0, rng);
    Trace trace("t", 1);
    phase.interleaveInto(trace, rng);
    EXPECT_EQ(trace.footprintBlocks(), 64u); // full-period LCG
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_NE(trace[i].blockAddr(), trace[i - 1].blockAddr());
}

TEST(Patterns, QueueHandsOffBetweenThreads)
{
    PhaseBuilder phase(2);
    Rng rng(8);
    AddressSpace mem;
    const Region queue = mem.allocateBlocks(16, "q");
    emitQueue(phase, 0, 1, queue, 0x100, 0x200, 32, 2);
    Trace trace("t", 2);
    phase.interleaveInto(trace, rng);
    // Producer wrote 32, consumer read 64.
    unsigned writes = 0, reads = 0;
    for (const auto &access : trace) {
        if (access.isWrite) {
            EXPECT_EQ(access.core, 0);
            ++writes;
        } else {
            EXPECT_EQ(access.core, 1);
            ++reads;
        }
    }
    EXPECT_EQ(writes, 32u);
    EXPECT_EQ(reads, 64u);
    // Every queue block is touched by both threads somewhere.
    EXPECT_EQ(trace.sharedFootprintBlocks(), queue.blocks());
}

TEST(Patterns, MigratoryIsSharedReadWrite)
{
    PhaseBuilder phase(3);
    Rng rng(9);
    AddressSpace mem;
    const Region object = mem.allocateBlocks(8, "obj");
    emitMigratory(phase, {0, 1, 2}, object, 0x100, 0x200, 2);
    Trace trace("t", 3);
    phase.interleaveInto(trace, rng);
    EXPECT_EQ(trace.size(), 3u * 8u * 2u * 2u);
    EXPECT_EQ(trace.sharedFootprintBlocks(), 8u);
    EXPECT_NEAR(trace.writeFraction(), 0.5, 1e-12);
}

TEST(Registry, HasAllTwentySixWorkloads)
{
    const auto workloads = allWorkloads();
    EXPECT_EQ(workloads.size(), 26u);
    EXPECT_EQ(workloadsInSuite("parsec").size(), 11u);
    EXPECT_EQ(workloadsInSuite("splash2").size(), 9u);
    EXPECT_EQ(workloadsInSuite("specomp").size(), 6u);
}

TEST(Registry, InfoLookup)
{
    const WorkloadInfo info = workloadInfo("canneal");
    EXPECT_EQ(info.name, "canneal");
    EXPECT_EQ(info.suite, "parsec");
    EXPECT_FALSE(info.description.empty());
}

WorkloadParams
tinyParams()
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.02;
    params.seed = 7;
    return params;
}

TEST(Generators, AllProduceNonEmptySharedTraces)
{
    for (const auto &info : allWorkloads()) {
        const Trace trace = makeWorkloadTrace(info.name, tinyParams());
        EXPECT_GT(trace.size(), 100u) << info.name;
        EXPECT_EQ(trace.numCores(), 4u) << info.name;
        EXPECT_EQ(trace.name(), info.name);
        // Every model must exhibit some cross-thread sharing.
        EXPECT_GT(trace.sharedFootprintBlocks(), 0u) << info.name;
        // All four threads participate.
        std::uint64_t cores = 0;
        for (const auto &access : trace)
            cores |= 1ULL << access.core;
        EXPECT_EQ(cores, 0b1111u) << info.name;
    }
}

TEST(Generators, DeterministicForSameSeed)
{
    const Trace a = makeWorkloadTrace("barnes", tinyParams());
    const Trace b = makeWorkloadTrace("barnes", tinyParams());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].block, b[i].block);
        ASSERT_EQ(a[i].core, b[i].core);
        ASSERT_EQ(a[i].pc, b[i].pc);
        ASSERT_EQ(a[i].isWrite, b[i].isWrite);
    }
}

TEST(Generators, SeedChangesTrace)
{
    WorkloadParams params = tinyParams();
    const Trace a = makeWorkloadTrace("canneal", params);
    params.seed = 8;
    const Trace b = makeWorkloadTrace("canneal", params);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].block != b[i].block || a[i].core != b[i].core;
    EXPECT_TRUE(differs);
}

TEST(Generators, ScaleGrowsFootprint)
{
    WorkloadParams small = tinyParams();
    WorkloadParams large = tinyParams();
    large.scale = 0.08;
    const Trace a = makeWorkloadTrace("ocean", small);
    const Trace b = makeWorkloadTrace("ocean", large);
    EXPECT_GT(b.size(), a.size());
    EXPECT_GT(b.footprintBlocks(), a.footprintBlocks());
}

TEST(Generators, SwaptionsIsMostlyPrivate)
{
    const Trace trace = makeWorkloadTrace("swaptions", tinyParams());
    const double shared_frac =
        static_cast<double>(trace.sharedFootprintBlocks()) /
        static_cast<double>(trace.footprintBlocks());
    EXPECT_LT(shared_frac, 0.1);
}

TEST(Generators, CannealSharesFarMoreThanSwaptions)
{
    // At tiny scales the sparse random touches dilute the absolute
    // shared fraction, so compare against the private-dominated app.
    const Trace canneal = makeWorkloadTrace("canneal", tinyParams());
    const Trace swaptions = makeWorkloadTrace("swaptions", tinyParams());
    const auto frac = [](const Trace &t) {
        return static_cast<double>(t.sharedFootprintBlocks()) /
               static_cast<double>(t.footprintBlocks());
    };
    EXPECT_GT(frac(canneal), 0.25);
    EXPECT_GT(frac(canneal), 3.0 * frac(swaptions));
}

TEST(Generators, UnknownNameDies)
{
    EXPECT_EXIT(makeWorkloadTrace("nosuchapp", tinyParams()),
                ::testing::ExitedWithCode(1), "unknown workload");
}

} // namespace
} // namespace casim
