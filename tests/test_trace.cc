/**
 * @file
 * Unit tests for the trace container and the offline next-use index.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "trace/next_use.hh"
#include "trace/trace.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

Trace
makeSimpleTrace()
{
    // Block stream (by block index): A B A C B A, cores 0 1 0 1 0 1.
    Trace trace("t", 2);
    trace.append(0x000, 0x40, 0, false); // A by core 0
    trace.append(0x040, 0x44, 1, false); // B by core 1
    trace.append(0x000, 0x40, 0, true);  // A by core 0
    trace.append(0x080, 0x48, 1, false); // C by core 1
    trace.append(0x040, 0x44, 0, false); // B by core 0
    trace.append(0x000, 0x40, 1, false); // A by core 1
    return trace;
}

TEST(Trace, AppendAndIndex)
{
    const Trace trace = makeSimpleTrace();
    EXPECT_EQ(trace.size(), 6u);
    EXPECT_EQ(trace[0].blockAddr(), 0x000u);
    EXPECT_EQ(trace[3].blockAddr(), 0x080u);
    EXPECT_EQ(trace[2].isWrite, true);
    EXPECT_EQ(trace[5].core, 1);
}

TEST(Trace, AlignsAddresses)
{
    Trace trace("t", 1);
    trace.append(0x1234, 0, 0, false);
    EXPECT_EQ(trace[0].blockAddr(), blockAlign(0x1234));
}

TEST(Trace, Footprint)
{
    const Trace trace = makeSimpleTrace();
    EXPECT_EQ(trace.footprintBlocks(), 3u);
}

/** Distinct blocks counted the obvious way. */
std::size_t
naiveFootprint(const Trace &trace)
{
    std::set<Addr> blocks;
    for (const MemAccess &access : trace)
        blocks.insert(access.blockAddr());
    return blocks.size();
}

TEST(Trace, FootprintMatchesNaiveCountOnRandomTraces)
{
    // Block spaces from far below to far above the reference count, so
    // the table both stays small and grows many times; address 0 and
    // unaligned addresses included.
    Rng rng(97);
    for (const std::uint64_t space : {1u, 7u, 300u, 5000u, 200000u}) {
        Trace trace("random", 4);
        for (int i = 0; i < 20000; ++i)
            trace.append(rng.below(space) * kBlockBytes + rng.below(64),
                         0x400, static_cast<CoreId>(rng.below(4)),
                         rng.chance(0.3));
        EXPECT_EQ(trace.footprintBlocks(), naiveFootprint(trace))
            << "block space " << space;
    }
}

TEST(Trace, FootprintMatchesNaiveCountOnGeneratedTraces)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.02;
    for (const char *name : {"canneal", "ocean", "swim_omp", "x264"}) {
        const Trace trace = makeWorkloadTrace(name, params);
        EXPECT_EQ(trace.footprintBlocks(), naiveFootprint(trace))
            << name;
    }
}

TEST(Trace, WriteFraction)
{
    const Trace trace = makeSimpleTrace();
    EXPECT_NEAR(trace.writeFraction(), 1.0 / 6.0, 1e-12);
}

TEST(Trace, SharedFootprint)
{
    const Trace trace = makeSimpleTrace();
    // A touched by cores 0 and 1; B by 1 and 0; C only by core 1.
    EXPECT_EQ(trace.sharedFootprintBlocks(), 2u);
}

TEST(Trace, EmptyTraceDefaults)
{
    Trace trace("empty", 4);
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.footprintBlocks(), 0u);
    EXPECT_DOUBLE_EQ(trace.writeFraction(), 0.0);
    EXPECT_EQ(trace.sharedFootprintBlocks(), 0u);
}

TEST(NextUse, ChainIsCorrect)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    EXPECT_EQ(index.nextUse(0), 2u);         // A -> A at 2
    EXPECT_EQ(index.nextUse(1), 4u);         // B -> B at 4
    EXPECT_EQ(index.nextUse(2), 5u);         // A -> A at 5
    EXPECT_EQ(index.nextUse(3), kSeqNever);  // C never again
    EXPECT_EQ(index.nextUse(4), kSeqNever);  // B never again
    EXPECT_EQ(index.nextUse(5), kSeqNever);  // last A
}

TEST(NextUse, ReferenceCounts)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    EXPECT_EQ(index.referenceCount(0x000), 3u);
    EXPECT_EQ(index.referenceCount(0x040), 2u);
    EXPECT_EQ(index.referenceCount(0x080), 1u);
    EXPECT_EQ(index.referenceCount(0xfc0), 0u);
}

TEST(NextUse, DistinctCoresWindow)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    // Block A: cores 0 (pos 0), 0 (pos 2), 1 (pos 5).
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 3, 8), 1u);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 6, 8), 2u);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 3, 3, 8), 1u);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 6, 100, 8), 0u);
}

TEST(NextUse, SharedWithin)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    EXPECT_FALSE(index.sharedWithin(0x000, 0, 5)); // only core 0 in [0,5)
    EXPECT_TRUE(index.sharedWithin(0x000, 0, 6));  // core 1 at pos 5
    EXPECT_TRUE(index.sharedWithin(0x040, 0, 6));  // cores 1 and 0
    EXPECT_FALSE(index.sharedWithin(0x080, 0, 6)); // core 1 only
}

TEST(NextUse, EarlyExitCap)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    // cap=1 returns as soon as one core is seen.
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 6, 1), 1u);
}

TEST(NextUse, NextUseByOther)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    // Block A accessed by core 1 first at position 5.
    EXPECT_EQ(index.nextUseByOther(0x000, 0, 0), 5u);
    // From position 0, the next non-core-1 access to B is position 4.
    EXPECT_EQ(index.nextUseByOther(0x040, 0, 1), 4u);
    // C is only touched by core 1.
    EXPECT_EQ(index.nextUseByOther(0x080, 0, 1), kSeqNever);
    // Unknown block.
    EXPECT_EQ(index.nextUseByOther(0xfc0, 0, 0), kSeqNever);
}

TEST(NextUse, WindowClampsAtStreamEnd)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    // A huge window must not overflow or crash.
    EXPECT_TRUE(index.sharedWithin(0x000, 0, kSeqNever - 1));
    EXPECT_EQ(index.distinctCoresFrom(0x000, 5, kSeqNever - 1, 8), 1u);
}

TEST(NextUse, SizeMatchesTrace)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    EXPECT_EQ(index.size(), trace.size());
}

// Property test: next-use chain agrees with a brute-force scan on a
// randomized trace.
TEST(NextUseProperty, MatchesBruteForce)
{
    Rng rng(77);
    Trace trace("rand", 4);
    for (int i = 0; i < 2000; ++i) {
        trace.append(rng.below(64) * kBlockBytes, 0x400 + rng.below(8),
                     static_cast<CoreId>(rng.below(4)),
                     rng.chance(0.3));
    }
    const NextUseIndex index(trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        SeqNo expected = kSeqNever;
        for (std::size_t j = i + 1; j < trace.size(); ++j) {
            if (trace[j].blockAddr() == trace[i].blockAddr()) {
                expected = j;
                break;
            }
        }
        ASSERT_EQ(index.nextUse(i), expected) << "position " << i;
    }
}

// Property test: sharedWithin agrees with a brute-force window scan.
TEST(NextUseProperty, SharedWithinMatchesBruteForce)
{
    Rng rng(99);
    Trace trace("rand2", 3);
    for (int i = 0; i < 1500; ++i) {
        trace.append(rng.below(32) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(3)),
                     rng.chance(0.5));
    }
    const NextUseIndex index(trace);
    for (SeqNo from = 0; from < trace.size(); from += 37) {
        for (const SeqNo window : {1u, 10u, 100u, 1000u}) {
            for (Addr block = 0; block < 32 * kBlockBytes;
                 block += 7 * kBlockBytes) {
                std::uint64_t mask = 0;
                const SeqNo limit =
                    std::min<SeqNo>(trace.size(), from + window);
                for (SeqNo j = from; j < limit; ++j) {
                    if (trace[j].blockAddr() == block)
                        mask |= 1ULL << trace[j].core;
                }
                const bool expected = popCount(mask) >= 2;
                ASSERT_EQ(index.sharedWithin(block, from, window),
                          expected)
                    << "block " << block << " from " << from
                    << " window " << window;
            }
        }
    }
}

TEST(NextUse, SizeGuardDiesOnSentinelCollision)
{
    // The index stores positions as 32-bit offsets with 0xffffffff as
    // the "no next use" sentinel; a trace that large must die with a
    // clear diagnostic instead of silently wrapping.  The guard is
    // checked with a mocked size — materializing a 4G-record trace is
    // neither possible nor necessary.
    NextUseIndex::checkIndexable(0);
    NextUseIndex::checkIndexable(0xfffffffeull);
    EXPECT_EXIT(NextUseIndex::checkIndexable(0xffffffffull),
                testing::ExitedWithCode(1), "32-bit next-use index");
    EXPECT_EXIT(NextUseIndex::checkIndexable(0x100000000ull),
                testing::ExitedWithCode(1), "32-bit next-use index");
}

TEST(NextUse, SingleReferenceBlocks)
{
    Trace trace("singles", 2);
    trace.append(0x000, 0, 0, false);
    trace.append(0x040, 0, 1, false);
    trace.append(0x080, 0, 0, false);
    const NextUseIndex index(trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(index.nextUse(i), kSeqNever);
        EXPECT_EQ(index.referenceCount(trace[i].blockAddr()), 1u);
        EXPECT_FALSE(
            index.sharedWithin(trace[i].blockAddr(), i, 1000));
    }
    const auto plane = index.computeLabelPlane(1000, 1000);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(plane.codes[i], NextUseIndex::kLabelPrivate);
}

TEST(NextUse, DistinctCoresCapSemantics)
{
    // Three cores touch block A inside the window; the count must
    // saturate exactly at the requested cap.
    Trace trace("caps", 3);
    trace.append(0x000, 0, 0, false);
    trace.append(0x000, 0, 1, false);
    trace.append(0x000, 0, 2, false);
    trace.append(0x000, 0, 0, false); // repeat core: no new count
    const NextUseIndex index(trace);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 4, 1), 1u);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 4, 2), 2u);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 4, 3), 3u);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 4, 8), 3u);
    // The window bound applies before the cap.
    EXPECT_EQ(index.distinctCoresFrom(0x000, 0, 2, 8), 2u);
    EXPECT_EQ(index.distinctCoresFrom(0x000, 3, 10, 8), 1u);
}

TEST(NextUse, ResidencyStaysSharedMatchesMaskQuery)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    for (const Addr block : {0x000u, 0x040u, 0x080u, 0xfc0u}) {
        for (SeqNo from = 0; from <= trace.size(); ++from) {
            for (const SeqNo window : {0u, 1u, 3u, 100u}) {
                for (const std::uint64_t prior : {0x0ull, 0x1ull,
                                                  0x3ull}) {
                    const std::uint64_t future =
                        index.coreMaskWithin(block, from, window);
                    bool has_future = false;
                    const bool shared = index.residencyStaysShared(
                        block, from, window, prior, &has_future);
                    EXPECT_EQ(has_future, future != 0);
                    EXPECT_EQ(shared,
                              future != 0 &&
                                  popCount(prior | future) >= 2);
                }
            }
        }
    }
}

TEST(LabelPlane, WindowStraddlesEndOfTrace)
{
    // Positions near the end of the trace see truncated windows; the
    // plane sweep must agree with the scan there, including at the
    // very last reference and with near-sentinel window sizes.
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    for (const SeqNo window : {SeqNo{0}, SeqNo{1}, SeqNo{2}, SeqNo{6},
                               SeqNo{100}, kSeqNever - 1}) {
        const auto plane = index.computeLabelPlane(window, window);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(plane.codes[i],
                      index.scanLabel(trace[i].blockAddr(), i, window,
                                      window))
                << "window " << window << " position " << i;
        }
    }
}

// Property test: the O(n) two-pointer plane sweep agrees with the
// per-fill scan path (the pre-plane implementation, kept as
// scanLabel) at every position of a randomized trace, for window and
// near-window combinations on both sides of each other.
TEST(LabelPlaneProperty, MatchesScanOnRandomizedTrace)
{
    Rng rng(123);
    Trace trace("rand3", 4);
    for (int i = 0; i < 2500; ++i) {
        trace.append(rng.below(48) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(4)),
                     rng.chance(0.4));
    }
    const NextUseIndex index(trace);
    for (const SeqNo window : {1u, 10u, 100u, 1000u}) {
        for (const SeqNo near : {window, window / 2 + 1,
                                 window * 3}) {
            const auto plane = index.computeLabelPlane(window, near);
            ASSERT_EQ(plane.codes.size(), trace.size());
            for (std::size_t i = 0; i < trace.size(); ++i) {
                ASSERT_EQ(plane.codes[i],
                          index.scanLabel(trace[i].blockAddr(), i,
                                          window, near))
                    << "window " << window << " near " << near
                    << " position " << i;
            }
        }
    }
}

TEST(LabelPlane, MemoizesPerWindowPair)
{
    const Trace trace = makeSimpleTrace();
    const NextUseIndex index(trace);
    const std::uint64_t builds_before = labelPlaneCounter("builds");
    const std::uint64_t hits_before = labelPlaneCounter("memo_hits");
    const auto &first = index.labelPlane(4, 4);
    const auto &again = index.labelPlane(4, 4);
    EXPECT_EQ(&first, &again);
    const auto &other = index.labelPlane(4, 2);
    EXPECT_NE(&first, &other);
    EXPECT_EQ(labelPlaneCounter("builds"), builds_before + 2);
    EXPECT_EQ(labelPlaneCounter("memo_hits"), hits_before + 1);
}

TEST(LabelPlane, BytesReturnToPriorValueWhenTheIndexDies)
{
    const Trace trace = makeSimpleTrace();
    const std::uint64_t before = labelPlaneCounter("bytes");
    const std::uint64_t slices_before = labelPlaneCounter("slice_bytes");
    {
        const NextUseIndex built(trace);
        const auto &plane = built.labelPlane(4, 4);
        built.labelPlane(4, 2);
        built.labelPlane(4, 4); // memo hit: no new bytes
        EXPECT_EQ(labelPlaneCounter("bytes"), before + 2 * trace.size());
        // Planes sweep a transient grouping; only a block-keyed query
        // keeps slices, and a second one reuses them.
        EXPECT_EQ(labelPlaneCounter("slice_bytes"), slices_before);
        built.scanLabel(trace[0].blockAddr(), 0, 4, 4);
        const std::uint64_t one_index = labelPlaneCounter("slice_bytes");
        EXPECT_GT(one_index, slices_before);
        built.referenceCount(trace[1].blockAddr());
        EXPECT_EQ(labelPlaneCounter("slice_bytes"), one_index);

        std::vector<NextUseIndex::LabelPlane> planes;
        planes.emplace_back(4, 4,
                            std::vector<std::uint8_t>(plane.codes.begin(),
                                                      plane.codes.end()));
        const NextUseIndex adopted(
            trace,
            std::vector<std::uint32_t>(built.chainData(),
                                       built.chainData() + built.size()),
            std::move(planes));
        EXPECT_EQ(labelPlaneCounter("bytes"), before + 3 * trace.size());
        adopted.referenceCount(trace[0].blockAddr());
        EXPECT_EQ(labelPlaneCounter("slice_bytes"),
                  slices_before + 2 * (one_index - slices_before));
    }
    EXPECT_EQ(labelPlaneCounter("bytes"), before);
    EXPECT_EQ(labelPlaneCounter("slice_bytes"), slices_before);
}

TEST(LabelPlane, AdoptedChainAndPlanesMatchFresh)
{
    Rng rng(321);
    Trace trace("adopt", 3);
    for (int i = 0; i < 800; ++i) {
        trace.append(rng.below(24) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(3)),
                     rng.chance(0.5));
    }
    const NextUseIndex fresh(trace);
    const SeqNo window = 64;
    const auto &plane = fresh.labelPlane(window, window);

    const std::uint64_t adopted_before = labelPlaneCounter("adopted");
    std::vector<std::uint32_t> chain(fresh.chainData(),
                                     fresh.chainData() + fresh.size());
    std::vector<NextUseIndex::LabelPlane> planes;
    planes.emplace_back(window, window,
                        std::vector<std::uint8_t>(plane.codes.begin(),
                                                  plane.codes.end()));
    const NextUseIndex adopted(trace, std::move(chain),
                               std::move(planes));
    EXPECT_EQ(labelPlaneCounter("adopted"), adopted_before + 1);

    // The chain and the plane come straight from the "bundle"; the
    // adopted plane must be served from the memo, not rebuilt, and
    // all slice-backed queries must still work (lazy rebuild).
    const std::uint64_t builds_before = labelPlaneCounter("builds");
    EXPECT_EQ(adopted.labelPlane(window, window).codes, plane.codes);
    EXPECT_EQ(labelPlaneCounter("builds"), builds_before);
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(adopted.nextUse(i), fresh.nextUse(i));
    for (std::size_t i = 0; i < trace.size(); i += 13) {
        const Addr block = trace[i].blockAddr();
        ASSERT_EQ(adopted.sharedWithin(block, i, window),
                  fresh.sharedWithin(block, i, window));
        ASSERT_EQ(adopted.referenceCount(block),
                  fresh.referenceCount(block));
    }
}

TEST(LabelPlane, FanoutBuildMatchesSerial)
{
    Rng rng(555);
    Trace trace("fanout", 4);
    for (int i = 0; i < 1200; ++i) {
        trace.append(rng.below(40) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(4)),
                     rng.chance(0.5));
    }
    // An inline fanout exercising the sharded code path (the sim layer
    // adapts ParallelRunner to this hook; shards are disjoint, so any
    // execution order is valid — including this serial one).
    std::size_t fanned_tasks = 0;
    const IndexFanout fanout =
        [&fanned_tasks](std::size_t n,
                        const std::function<void(std::size_t)> &task) {
            fanned_tasks += n;
            for (std::size_t i = 0; i < n; ++i)
                task(i);
        };
    const NextUseIndex serial(trace);
    const NextUseIndex sharded(trace, fanout);
    // The chain itself is one serial backward pass (the same builder
    // whose output capture bundles persist), so construction fans
    // nothing out; the plane sweep below is what shards.
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(sharded.nextUse(i), serial.nextUse(i));
    const auto serial_plane = serial.computeLabelPlane(100, 50);
    const auto sharded_plane = sharded.computeLabelPlane(100, 50,
                                                         fanout);
    EXPECT_GT(fanned_tasks, 0u);
    EXPECT_EQ(sharded_plane.codes, serial_plane.codes);
}

} // namespace
} // namespace casim
