/**
 * @file
 * An independent reference for the oracle's fill labels.
 *
 * The label planes and NextUseIndex::scanLabel both read the index's
 * per-block grouping, which is derived from the next-use chain.  The
 * reference here reads neither: one backward pass over the raw LLC
 * stream remembers, per block, the earliest later reference of each
 * core and of any core, and applies DESIGN.md's "Oracle definition" at
 * every position:
 *
 *   - private:   fewer than two distinct cores reference the block in
 *                [i, i + window);
 *   - shared:    at least two do, and the block's next reference after
 *                i lies within near_window of i;
 *   - near-veto: at least two do, but the block is never referenced
 *                again or its next reference lies beyond near_window.
 *
 * ReferenceLabel checks the planes and the scan against it on every
 * workload's captured stream, for every (window, near) pair fig7 and
 * ablation_window use at both LLC sizes.
 */

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/capture_cache.hh"
#include "sim/experiment.hh"
#include "trace/next_use.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

/** The oracle label of every position of `stream`, from the stream alone. */
std::vector<std::uint8_t>
referenceLabels(const Trace &stream, SeqNo window, SeqNo near_window)
{
    struct Future
    {
        /** The block's earliest reference after the current position. */
        SeqNo next = kSeqNever;
        /** Per core: its earliest reference at or after the position. */
        std::vector<SeqNo> byCore;
    };
    std::unordered_map<Addr, Future> future;
    std::vector<std::uint8_t> labels(stream.size());
    for (std::size_t i = stream.size(); i-- > 0;) {
        const MemAccess &ref = stream[i];
        Future &f = future[ref.blockAddr()];
        if (f.byCore.empty())
            f.byCore.assign(stream.numCores(), kSeqNever);
        const SeqNo next = f.next;
        f.next = i;
        f.byCore.at(ref.core) = i;

        unsigned cores = 0;
        for (const SeqNo at : f.byCore)
            cores += at != kSeqNever && at - i < window ? 1 : 0;
        if (cores < 2)
            labels[i] = NextUseIndex::kLabelPrivate;
        else if (next == kSeqNever || next - i > near_window)
            labels[i] = NextUseIndex::kLabelNearVeto;
        else
            labels[i] = NextUseIndex::kLabelShared;
    }
    return labels;
}

/** Append `more` to `pairs`, skipping pairs already present. */
void
addPairs(std::vector<NextUseIndex::WindowPair> &pairs,
         const std::vector<NextUseIndex::WindowPair> &more)
{
    for (const auto &pair : more) {
        if (std::find(pairs.begin(), pairs.end(), pair) == pairs.end())
            pairs.push_back(pair);
    }
}

/**
 * Every (window, near) pair the oracle benches label with, at 4 and
 * 8 MB: fig7's study pairs, ablation_window's default sweep (factors
 * 1, 2, 4 and 8, the near-reuse qualifier pinned to the window) and
 * ablation_oracle_variant's near-reuse qualifier of one LLC capacity.
 */
std::vector<NextUseIndex::WindowPair>
benchWindowPairs(const StudyConfig &study)
{
    std::vector<NextUseIndex::WindowPair> pairs = studyOracleWindows(study);
    for (const double factor : {1.0, 2.0, 4.0, 8.0}) {
        StudyConfig sweep = study;
        sweep.oracleWindowFactor = factor;
        sweep.nearWindowFactor = 0.0;
        addPairs(pairs, studyOracleWindows(sweep));
    }
    StudyConfig tight = study;
    tight.nearWindowFactor = 1.0;
    addPairs(pairs, studyOracleWindows(tight));
    return pairs;
}

/**
 * Windows shorter than a stream of `size` references, so that window
 * ends fall inside the stream whatever the capture scale (at small
 * scales the bench windows span most streams whole).
 */
std::vector<NextUseIndex::WindowPair>
streamWindowPairs(std::size_t size)
{
    std::vector<NextUseIndex::WindowPair> pairs;
    for (const SeqNo window : {SeqNo{size / 64}, SeqNo{size / 8}})
        addPairs(pairs, {{window, window}, {window, window / 4}});
    return pairs;
}

/** Planes and scan both equal the reference at every position. */
void
expectMatchesReference(const Trace &stream, const NextUseIndex &index,
                       const std::vector<NextUseIndex::WindowPair> &pairs)
{
    const auto planes = index.labelPlanes(pairs);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto [window, near] = pairs[p];
        const auto expect = referenceLabels(stream, window, near);
        ASSERT_EQ(planes[p]->codes.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            ASSERT_EQ(planes[p]->codes[i], expect[i])
                << "plane, window " << window << " near " << near
                << " position " << i;
            ASSERT_EQ(index.scanLabel(stream[i].blockAddr(), i, window,
                                      near),
                      expect[i])
                << "scan, window " << window << " near " << near
                << " position " << i;
        }
    }
}

/** Tally the codes of `planes` into `seen`, indexed by label. */
void
countLabels(const std::vector<const NextUseIndex::LabelPlane *> &planes,
            std::array<std::size_t, 3> &seen)
{
    for (const NextUseIndex::LabelPlane *plane : planes)
        for (const std::uint8_t code : plane->codes)
            ++seen.at(code);
}

TEST(ReferenceLabel, MatchesPlanesAndScanOnEveryWorkload)
{
    StudyConfig study;
    study.workload.scale = 0.02;
    // Factor f at 8 MB is factor 2f at 4 MB: five distinct windows,
    // plus the two near-qualified study windows.
    const auto bench_pairs = benchWindowPairs(study);
    ASSERT_EQ(bench_pairs.size(), 7u);

    CaptureCache cache;
    std::array<std::size_t, 3> seen{};
    for (const WorkloadInfo &info : allWorkloads()) {
        SCOPED_TRACE(info.name);
        const CapturedWorkload wl =
            captureWorkload(info.name, study, cache);
        auto pairs = bench_pairs;
        addPairs(pairs, streamWindowPairs(wl.stream.size()));
        expectMatchesReference(wl.stream, wl.nextUse(), pairs);
        countLabels(wl.nextUse().labelPlanes(pairs), seen);
    }
    EXPECT_GT(seen[NextUseIndex::kLabelPrivate], 0u);
    EXPECT_GT(seen[NextUseIndex::kLabelShared], 0u);
    EXPECT_GT(seen[NextUseIndex::kLabelNearVeto], 0u);
}

TEST(ReferenceLabel, MatchesOnRandomStreamsAcrossWindowEdges)
{
    // Windows from one position to past the end of the stream, with
    // near windows on both sides of them.
    std::array<std::size_t, 3> seen{};
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Trace stream("ref-label", 4);
        for (int i = 0; i < 3000; ++i)
            stream.append(rng.below(64) * kBlockBytes, 0x400,
                          static_cast<CoreId>(rng.below(4)),
                          rng.chance(0.3));
        const NextUseIndex index(stream);
        std::vector<NextUseIndex::WindowPair> pairs;
        for (const SeqNo window : {SeqNo{0}, SeqNo{1}, SeqNo{7}, SeqNo{64},
                                   SeqNo{500}, SeqNo{5000}, kSeqNever})
            for (const SeqNo near : {SeqNo{0}, window / 2, window})
                pairs.emplace_back(window, near);
        expectMatchesReference(stream, index, pairs);
        countLabels(index.labelPlanes(pairs), seen);
    }
    EXPECT_GT(seen[NextUseIndex::kLabelPrivate], 0u);
    EXPECT_GT(seen[NextUseIndex::kLabelShared], 0u);
    EXPECT_GT(seen[NextUseIndex::kLabelNearVeto], 0u);
}

} // namespace
} // namespace casim
