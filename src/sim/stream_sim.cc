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
    // The CacheBlock payload exists only when something reads it: a
    // chained observer, the scorer's victim inspection, or the
    // prefetcher's per-block prefetched flag.  Everything else (plain
    // policies, OPT, the oracle) replays on the lean tag store alone,
    // and a training labeler then learns from residency records.
    // Every observer callback this class implements is a pure forward
    // to a training labeler/chained observer; with neither reading
    // blocks, detach so the cache skips the virtual dispatch per
    // access entirely.
    const bool training = labeler_ != nullptr && labeler_->trains();
    const bool payload =
        chained_ != nullptr || scorer_ != nullptr || prefetcher_ != nullptr;
    const bool observed = chained_ != nullptr || (training && payload);
    if (payload)
        cache_->allocatePayload();
    cache_->setObserver(observed ? static_cast<CacheObserver *>(this)
                                 : nullptr);
    // One handler for the whole run (it reads the position from now_)
    // instead of a std::function construction per fill.
    if (scorer_ != nullptr) {
        onEvict_ = [this](unsigned set, unsigned way) {
            scorer_->onEviction(*cache_, set, way, now_);
        };
    } else if (training && !payload) {
        const CacheGeometry &geo = cache_->geometry();
        records_.resize(static_cast<std::size_t>(geo.numSets()) *
                        geo.ways);
        sharedLabels_.resize(geo.numSets());
        onEvict_ = [this](unsigned set, unsigned way) {
            trainRecord(set, way);
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
    // The flush ends the remaining residencies in the order the
    // payload flush reports them: set by set, ways ascending.
    if (!records_.empty()) {
        for (unsigned set = 0; set < cache_->geometry().numSets(); ++set)
            for (std::uint64_t live = cache_->validWays(set); live != 0;
                 live &= live - 1)
                trainRecord(set,
                            static_cast<unsigned>(std::countr_zero(live)));
    }
    cache_->flushResidencies();
}

void
StreamSim::trainRecord(unsigned set, unsigned way)
{
    const ResidencyRecord &record = recordAt(set, way);
    labeler_->train({cache_->tagAt(set, way), record.fillPC,
                     record.touchedMask,
                     ((sharedLabels_[set] >> way) & 1) != 0});
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
        if (!records_.empty())
            recordAt(cache_->setIndex(ctx.blockAddr), way).touchedMask |=
                1ULL << ctx.core;
        // Only prefetch fills set the flag, and they imply a payload.
        if (prefetcher_ != nullptr) {
            CacheBlock &hit =
                cache_->blockAt(cache_->setIndex(ctx.blockAddr), way);
            if (hit.prefetched) {
                hit.prefetched = false;
                prefetcher_->recordUseful();
            }
        }
    } else {
        if (labeler_ != nullptr)
            ctx.predictedShared = labeler_->predictShared(ctx);
        const unsigned filled = cache_->fillWayWith(policy, ctx, onEvict_);
        if (!records_.empty()) {
            const unsigned set = cache_->setIndex(ctx.blockAddr);
            recordAt(set, filled) = {ctx.pc, 1ULL << ctx.core};
            const std::uint64_t bit = 1ULL << filled;
            sharedLabels_[set] = (sharedLabels_[set] & ~bit) |
                                 (ctx.predictedShared ? bit : 0);
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
        CacheBlock &block = cache_->fill(ctx, onEvict_);
        block.prefetched = true;
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

void
StreamSim::onHit(const CacheBlock &block, const ReplContext &ctx)
{
    if (chained_ != nullptr)
        chained_->onHit(block, ctx);
}

void
StreamSim::onMiss(const ReplContext &ctx)
{
    if (chained_ != nullptr)
        chained_->onMiss(ctx);
}

void
StreamSim::onFill(const CacheBlock &block, const ReplContext &ctx)
{
    if (chained_ != nullptr)
        chained_->onFill(block, ctx);
}

void
StreamSim::onResidencyEnd(const CacheBlock &block)
{
    if (labeler_ != nullptr)
        labeler_->train(ResidencyOutcome::of(block));
    if (chained_ != nullptr)
        chained_->onResidencyEnd(block);
}

} // namespace casim
