/**
 * @file
 * Implementation of the LLC stream replayer.
 */

#include "sim/stream_sim.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/policy_visit.hh"
#include "trace/mmap_file.hh"

namespace casim {

namespace {

/** Stream references a shard routes per chunk before replaying them. */
constexpr std::size_t kRouteChunk = 512;

} // namespace

StreamSim::StreamSim(const Trace &stream, const CacheGeometry &geo,
                     std::unique_ptr<ReplPolicy> policy, CacheShard shard)
    : stream_(stream), shard_(shard),
      cache_(std::make_unique<Cache>("llc", geo, std::move(policy),
                                     shard))
{
}

void
StreamSim::run()
{
    casim_assert(!ran_, "StreamSim::run() called twice");
    ran_ = true;
    // The residency record exists only when something reads it.
    // Everything else (plain policies, OPT, the oracle) replays on the
    // tags alone.
    if (labeler_ != nullptr && labeler_->trains())
        trainee_ = labeler_;
    if (trainee_ != nullptr || tracker_ != nullptr || scorer_ != nullptr ||
        prefetcher_ != nullptr) {
        const CacheGeometry &geo = cache_->geometry();
        residency_.resize(static_cast<std::size_t>(geo.numSets()) *
                          geo.ways);
        setResidency_.resize(geo.numSets());
        // One handler for the whole run (it reads the position from
        // now_) instead of a std::function construction per fill.
        onEvict_ = [this](unsigned set, unsigned way) {
            if (scorer_ != nullptr)
                scorer_->onEviction(*cache_, set, way, residencyRow(set),
                                    now_);
            endResidency(set, way);
        };
    }

    // A mapped stream is consumed strictly forward, so a page cursor
    // advises the kernel epoch by epoch.  An unsharded replay also
    // retires fully replayed epochs, so it never needs more than
    // O(epoch) resident trace pages; the shards of one stream
    // read the same pages at the same time, so a shard keeps them.
    // Pure paging hints: results are unchanged.
    PageCursor cursor(stream_.pager(), /*retire=*/shard_.bits == 0);
    // The policy's concrete type is resolved here, once: the loop is
    // instantiated for it, so the cache's and the policy's per-access
    // code inlines into one body (see core/policy_visit.hh).
    replayed_ = visitPolicy(cache_->policy(), [&](auto &policy) {
        return replay(policy, cursor);
    });
    if (recordsResidencies()) {
        for (unsigned set = 0; set < cache_->geometry().numSets(); ++set)
            for (std::uint64_t live = cache_->validWays(set); live != 0;
                 live &= live - 1)
                endResidency(set,
                             static_cast<unsigned>(std::countr_zero(live)));
    }
    cache_->flushResidencies();
}

void
StreamSim::startResidency(unsigned set, unsigned way,
                          const ReplContext &ctx, bool prefetched)
{
    residencyRow(set)[way] = {ctx.pc, 1ULL << ctx.core, 0};
    SetResidency &masks = setResidency_[set];
    const std::uint64_t bit = 1ULL << way;
    masks.written = (masks.written & ~bit) | (ctx.isWrite ? bit : 0);
    masks.shared = (masks.shared & ~bit) | (ctx.predictedShared ? bit : 0);
    masks.prefetched = (masks.prefetched & ~bit) | (prefetched ? bit : 0);
}

void
StreamSim::endResidency(unsigned set, unsigned way)
{
    if (trainee_ == nullptr && tracker_ == nullptr)
        return;
    const WayResidency &record = residencyRow(set)[way];
    const SetResidency &masks = setResidency_[set];
    const ResidencyOutcome outcome{
        .addr = cache_->tagAt(set, way),
        .fillPC = record.fillPC,
        .touchedMask = record.touchedMask,
        .hits = record.hits,
        .predictedShared = ((masks.shared >> way) & 1) != 0,
        .written = ((masks.written >> way) & 1) != 0,
    };
    if (trainee_ != nullptr)
        trainee_->train(outcome);
    if (tracker_ != nullptr)
        tracker_->recordResidency(outcome.touchedMask, outcome.hits,
                                  outcome.written);
}

template <typename Policy>
std::size_t
StreamSim::replay(Policy &policy, PageCursor &cursor)
{
    const std::size_t n = stream_.size();
    if (shard_.bits == 0) {
        for (std::size_t i = 0; i < n; ++i) {
            cursor.touch(i);
            stepWith(policy, i);
        }
        return n;
    }
    // A shard compacts each chunk's own references into a local index
    // list with a store-and-advance instead of a branch: which shard a
    // reference belongs to is data-dependent and would mispredict.
    const unsigned block_shift = floorLog2(cache_->geometry().blockBytes);
    const Addr mask = (Addr{1} << shard_.bits) - 1;
    std::array<std::size_t, kRouteChunk> mine;
    std::size_t replayed = 0;
    for (std::size_t base = 0; base < n; base += kRouteChunk) {
        const std::size_t end = std::min(base + kRouteChunk, n);
        std::size_t count = 0;
        for (std::size_t i = base; i < end; ++i) {
            cursor.touch(i);
            mine[count] = i;
            count += ((stream_[i].blockAddr() >> block_shift) & mask) ==
                     shard_.index;
        }
        for (std::size_t k = 0; k < count; ++k)
            stepWith(policy, mine[k]);
        replayed += count;
    }
    return replayed;
}

template <typename Policy>
void
StreamSim::stepWith(Policy &policy, std::size_t i)
{
    const auto position = static_cast<SeqNo>(i);
    now_ = position;
    const MemAccess &access = stream_[i];
    ReplContext ctx{access.blockAddr(), access.pc, access.core,
                    access.isWrite, position, false};
    const unsigned way = cache_->accessWayWith(policy, ctx);
    if (way != cache_->geometry().ways) {
        if (recordsResidencies()) {
            const unsigned set = cache_->setIndex(ctx.blockAddr);
            WayResidency &record = residencyRow(set)[way];
            record.touchedMask |= 1ULL << ctx.core;
            ++record.hits;
            SetResidency &masks = setResidency_[set];
            const std::uint64_t bit = 1ULL << way;
            if (ctx.isWrite)
                masks.written |= bit;
            // Only prefetch fills set the bit.
            if (masks.prefetched & bit) {
                masks.prefetched &= ~bit;
                prefetcher_->recordUseful();
            }
        }
    } else {
        if (labeler_ != nullptr)
            ctx.predictedShared = labeler_->predictShared(ctx);
        const unsigned filled = cache_->fillWayWith(policy, ctx, onEvict_);
        if (recordsResidencies()) {
            startResidency(cache_->setIndex(ctx.blockAddr), filled, ctx,
                           false);
            if (tracker_ != nullptr)
                tracker_->recordMiss();
        }
    }
    if (prefetcher_ != nullptr)
        runPrefetcher(access, position);
}

void
StreamSim::runPrefetcher(const MemAccess &access, SeqNo position)
{
    prefetchQueue_.clear();
    prefetcher_->observe(access.pc, access.blockAddr(),
                         prefetchQueue_);
    // Deduplicate within the burst, keeping the first occurrence: a
    // repeated target would otherwise fill twice whenever the first
    // fill's block was evicted by a later fill of the same burst
    // (possible in any set narrower than the burst), churning
    // residencies that were never demanded.  Bursts are at most a
    // handful of targets, so the quadratic scan is free.
    std::size_t unique = 0;
    for (std::size_t i = 0; i < prefetchQueue_.size(); ++i) {
        bool seen = false;
        for (std::size_t j = 0; j < unique && !seen; ++j)
            seen = prefetchQueue_[j] == prefetchQueue_[i];
        if (!seen)
            prefetchQueue_[unique++] = prefetchQueue_[i];
    }
    prefetchQueue_.resize(unique);
    for (const Addr target : prefetchQueue_) {
        if (cache_->contains(target))
            continue;
        // Prefetch fills carry the triggering reference's core/PC and
        // consult the labeler, but bypass demand accounting.  Their
        // evictions go through the same scoring handler as demand
        // fills: a prefetch-induced eviction is just as much a
        // replacement decision as a demand-induced one.
        ReplContext ctx{target, access.pc, access.core, false,
                        position, false};
        if (labeler_ != nullptr)
            ctx.predictedShared = labeler_->predictShared(ctx);
        startResidency(cache_->setIndex(target),
                       cache_->fillWay(ctx, onEvict_), ctx, true);
    }
}

double
StreamSim::missRatio() const
{
    const std::uint64_t total = cache_->demandAccesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(cache_->demandMisses()) /
           static_cast<double>(total);
}

} // namespace casim
