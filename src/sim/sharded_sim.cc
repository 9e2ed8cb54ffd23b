/**
 * @file
 * Implementation of the set-sharded replay engine.
 */

#include "sim/sharded_sim.hh"

#include <mutex>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "trace/mmap_file.hh"

namespace casim {

namespace {

/**
 * Process-wide sharded-replay counters (see shardedReplayStats).
 * Atomic counters plus an internally synchronized distribution, so
 * concurrent replays (and a casimd stats render racing them) need no
 * extra serialization.
 */
struct ShardStats
{
    stats::StatGroup group{"sharded_replay"};
    stats::AtomicCounter &replays = group.addAtomicCounter(
        "replays", "sharded replays run");
    stats::AtomicCounter &shardsRun = group.addAtomicCounter(
        "shards_run", "shard replays executed");
    stats::AtomicCounter &statMerges = group.addAtomicCounter(
        "stat_merges", "per-shard stat groups merged");
    stats::AtomicCounter &serialFallbacks = group.addAtomicCounter(
        "serial_fallbacks",
        "replays forced serial by a non-shardable spec");
    stats::Distribution &substreamRefs = group.addDistribution(
        "substream_refs", "references routed to each shard");
};

ShardStats &
shardStats()
{
    static ShardStats stats;
    return stats;
}

} // namespace

stats::StatGroup &
shardedReplayStats()
{
    return shardStats().group;
}

void
noteShardedReplayFallback()
{
    ++shardStats().serialFallbacks;
}

ShardedStreamSim::ShardedStreamSim(const Trace &stream,
                                   const CacheGeometry &geo,
                                   unsigned shards,
                                   ReplPolicyFactory make_policy)
    : stream_(stream), geo_(geo), shards_(shards),
      makePolicy_(std::move(make_policy))
{
    geo_.check();
    casim_assert(shards_ >= 1 && isPowerOf2(shards_) &&
                     shards_ <= geo_.numSets(),
                 "shard count ", shards_, " must be a power of two in ",
                 "[1, numSets=", geo_.numSets(), "]");
    bits_ = floorLog2(shards_);
    sims_.resize(shards_);

    // Route each reference to the shard owning its set: the low
    // log2(shards) set-index bits select the shard (see CacheShard).
    // A counting pass sizes the substreams so the fill pass never
    // reallocates.
    const unsigned block_shift = floorLog2(geo_.blockBytes);
    const Addr shard_mask = shards_ - 1;
    std::vector<std::size_t> counts(shards_, 0);
    {
        // Both passes stream a mapped trace forward; the counting pass
        // must not retire pages the fill pass still needs, so only the
        // second cursor releases them.
        PageCursor cursor(stream_.pager(), /*retire=*/false);
        for (std::size_t i = 0; i < stream_.size(); ++i) {
            cursor.touch(i);
            ++counts[(stream_[i].blockAddr() >> block_shift) &
                     shard_mask];
        }
    }

    substreams_.reserve(shards_);
    positions_.resize(shards_);
    for (unsigned s = 0; s < shards_; ++s) {
        substreams_.emplace_back(
            stream_.name() + ".shard" + std::to_string(s),
            stream_.numCores());
        substreams_[s].reserve(counts[s]);
        positions_[s].reserve(counts[s]);
    }
    PageCursor cursor(stream_.pager(), /*retire=*/true);
    for (std::size_t i = 0; i < stream_.size(); ++i) {
        cursor.touch(i);
        const MemAccess &access = stream_[i];
        const auto s = static_cast<unsigned>(
            (access.blockAddr() >> block_shift) & shard_mask);
        substreams_[s].append(access);
        positions_[s].push_back(static_cast<SeqNo>(i));
    }
}

void
ShardedStreamSim::run(ParallelRunner *runner)
{
    casim_assert(!ran_, "ShardedStreamSim::run() called twice");
    ran_ = true;

    // Each shard replays 1/K of the capacity: same ways and block
    // size, 1/K of the sets — exactly the sets this shard owns.
    const CacheGeometry local{geo_.sizeBytes >> bits_, geo_.ways,
                              geo_.blockBytes};
    const auto replay_shard = [&](std::size_t s) {
        auto sim = std::make_unique<StreamSim>(
            substreams_[s], local,
            makePolicy_(local.numSets(), local.ways),
            CacheShard{bits_, static_cast<unsigned>(s)});
        sim->setStreamPositions(&positions_[s]);
        sim->setBatchWindow(batchWindow_);
        sim->setObserver(observer_);
        sim->run();
        sims_[s] = std::move(sim);
    };

    if (runner != nullptr && shards_ > 1)
        runner->run(shards_, replay_shard);
    else
        for (unsigned s = 0; s < shards_; ++s)
            replay_shard(s);

    // Fold shards 1..K-1 into shard 0's stat tree.  The groups are
    // congruent by construction (every shard cache is "llc" with the
    // same counters), so the merged group renders exactly like a
    // serial replay's.
    for (unsigned s = 1; s < shards_; ++s)
        sims_[0]->cache().stats().mergeFrom(sims_[s]->cache().stats());

    ShardStats &stats = shardStats();
    ++stats.replays;
    stats.shardsRun += shards_;
    stats.statMerges += shards_ - 1;
    for (unsigned s = 0; s < shards_; ++s)
        stats.substreamRefs.sample(
            static_cast<double>(substreams_[s].size()));
}

Cache &
ShardedStreamSim::cache()
{
    casim_assert(ran_, "merged cache is only valid after run()");
    return sims_[0]->cache();
}

const Cache &
ShardedStreamSim::cache() const
{
    casim_assert(ran_, "merged cache is only valid after run()");
    return sims_[0]->cache();
}

std::uint64_t
ShardedStreamSim::hits() const
{
    return cache().demandHits();
}

std::uint64_t
ShardedStreamSim::misses() const
{
    return cache().demandMisses();
}

double
ShardedStreamSim::missRatio() const
{
    const std::uint64_t total = cache().demandAccesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(misses()) / static_cast<double>(total);
}

} // namespace casim
