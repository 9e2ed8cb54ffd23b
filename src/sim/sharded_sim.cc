/**
 * @file
 * Implementation of the set-sharded replay engine.
 */

#include "sim/sharded_sim.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

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
    stats::AtomicCounter &inlineSerial = group.addAtomicCounter(
        "inline_serial",
        "shardable replays run unsharded because their shards would "
        "have run inline");
    stats::Distribution &substreamRefs = group.addDistribution(
        "substream_refs", "references each shard replayed");
};

ShardStats &
shardStats()
{
    // Never destroyed, so a replay finishing during static destruction
    // (a worker of a runner with static storage) still finds it.
    static ShardStats *stats = new ShardStats;
    return *stats;
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

void
noteShardedReplayInline()
{
    ++shardStats().inlineSerial;
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
            stream_, local, makePolicy_(local.numSets(), local.ways),
            CacheShard{bits_, static_cast<unsigned>(s)});
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
            static_cast<double>(sims_[s]->replayed()));
}

std::size_t
ShardedStreamSim::shardRefs(unsigned s) const
{
    casim_assert(ran_, "shard sizes are only known after run()");
    return sims_.at(s)->replayed();
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
