/**
 * @file
 * Set-sharded replay engine: one replay, K concurrent shards.
 *
 * The set index of an LLC block is a pure function of its address, so
 * a captured reference stream splits exactly into one independent
 * substream per set shard — there is no cross-shard interaction to
 * simulate.  ShardedStreamSim partitions the sets by their low
 * log2(K) index bits and replays every shard through its own
 * shard-local StreamSim/Cache (optionally fanned out on a
 * ParallelRunner).  Each shard walks the original stream in place and
 * replays only its own references — nothing is copied — then the
 * per-shard cache statistics merge back into one StatGroup tree.
 *
 * For replacement policies whose state is per-set (PolicyDesc::
 * perSetState: lru, nru, srrip, opt) the merged result is
 * byte-identical to a serial replay: each set sees the same references
 * in the same order with the same global sequence numbers, and the
 * per-shard stat groups are structurally congruent counters that sum
 * to the serial values.  Policies with global state (set-dueling
 * PSELs, BRRIP's shared insertion RNG, SHiP's SHCT) cannot shard — the
 * experiment layer forces K=1 for them, and for any replay whose
 * shards would not run concurrently (see replayMisses).
 */

#ifndef CASIM_SIM_SHARDED_SIM_HH
#define CASIM_SIM_SHARDED_SIM_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "sim/parallel.hh"
#include "sim/stream_sim.hh"

namespace casim {

/** Replays one stream as K independent set-sharded replays. */
class ShardedStreamSim
{
  public:
    /**
     * Set up a K-way replay of `stream`; run() does the work.
     *
     * @param stream      The captured LLC reference stream; it must
     *                    outlive run().
     * @param geo         GLOBAL LLC geometry; each shard replays at
     *                    1/shards of this capacity.
     * @param shards      Shard count: a power of two, at least 1, at
     *                    most geo.numSets().
     * @param make_policy Builds one replacement policy per shard from
     *                    the shard-LOCAL (sets, ways); must be callable
     *                    concurrently.
     */
    ShardedStreamSim(const Trace &stream, const CacheGeometry &geo,
                     unsigned shards, ReplPolicyFactory make_policy);

    /**
     * Replay every shard and merge the per-shard statistics.  With a
     * runner the shards are one task each: concurrent unless the
     * runner runs inline (ParallelRunner::runsInline), in which case
     * they run one after another, like they do without a runner.
     */
    void run(ParallelRunner *runner = nullptr);

    /** Shard count. */
    unsigned shards() const { return shards_; }

    /** References shard `s` replayed (after run()). */
    std::size_t shardRefs(unsigned s) const;

    /**
     * The merged cache: shard 0's instance, whose stats hold the sums
     * over all shards after run().  Its StatGroup is structurally
     * identical to a serial replay's "llc" group, so dumping it yields
     * byte-identical output for per-set-state policies.
     */
    Cache &cache();
    const Cache &cache() const;

    /** Total demand hits across shards (after run()). */
    std::uint64_t hits() const;

    /** Total demand misses across shards (after run()). */
    std::uint64_t misses() const;

    /** Miss ratio over the whole stream (0 if empty). */
    double missRatio() const;

  private:
    const Trace &stream_;
    CacheGeometry geo_;
    unsigned shards_;
    unsigned bits_;
    ReplPolicyFactory makePolicy_;

    std::vector<std::unique_ptr<StreamSim>> sims_;
    bool ran_ = false;
};

/**
 * Process-wide counters of the sharded replay engine: replays run,
 * shards executed, stat-group merges, serial fallbacks forced by
 * non-shardable specs, replays kept serial because their shards would
 * have run inline, and the distribution of references each shard
 * replayed.  Increments are internally serialized; read between runs.
 */
stats::StatGroup &shardedReplayStats();

/**
 * Record that a replay requesting shards fell back to the serial
 * engine (global-state policy, labeler, or prefetcher attached).
 * Called by the experiment layer's dispatch.
 */
void noteShardedReplayFallback();

/**
 * Record that a shardable replay ran unsharded because its shards
 * would have run inline (see ReplaySpec::shardRunner).
 */
void noteShardedReplayInline();

} // namespace casim

#endif // CASIM_SIM_SHARDED_SIM_HH
