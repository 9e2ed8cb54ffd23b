/**
 * @file
 * Set-sharded replay engine: one replay, K concurrent shards.
 *
 * The set index of an LLC block is a pure function of its address, so
 * a captured reference stream splits exactly into one independent
 * substream per set shard — there is no cross-shard interaction to
 * simulate.  ShardedStreamSim partitions the sets by their low
 * log2(K) index bits, routes each reference to its shard's substream
 * in a single pass, replays every shard through its own shard-local
 * StreamSim/Cache (optionally fanned out on a ParallelRunner), and
 * merges the per-shard cache statistics back into one StatGroup tree.
 *
 * For replacement policies whose state is per-set (PolicyDesc::
 * perSetState: lru, random, nru, srrip, lip, opt) the merged result is
 * byte-identical to a serial replay: each set sees the same references
 * in the same order with the same global sequence numbers, and the
 * per-shard stat groups are structurally congruent counters that sum
 * to the serial values.  Policies with global state (set-dueling
 * PSELs, shared insertion RNGs, SHiP's SHCT) cannot shard — the
 * experiment layer forces K=1 for them (see replayMisses).
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
     * Partition `stream` into per-shard substreams (done here, so a
     * caller can inspect substream sizes before running).
     *
     * @param stream      The captured LLC reference stream.
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
     * runner the shards fan out as one task each; calling from inside
     * a task of the same runner is safe (the nested run() executes
     * inline, see ParallelRunner::run).  Without a runner the shards
     * run serially on the caller.
     */
    void run(ParallelRunner *runner = nullptr);

    /**
     * Override the batch window of every shard's replay loop (see
     * StreamSim::setBatchWindow); shards otherwise inherit the process
     * default.  Call before run().
     */
    void setBatchWindow(unsigned window) { batchWindow_ = window; }

    /**
     * Forward every shard's residency events to `observer` (may be
     * null; see StreamSim::setObserver).  Shards fanned out on a
     * runner call it concurrently, so it must be thread-safe.  Call
     * before run().
     */
    void setObserver(CacheObserver *observer) { observer_ = observer; }

    /** Shard count. */
    unsigned shards() const { return shards_; }

    /** References routed to shard `s`. */
    std::size_t substreamSize(unsigned s) const
    {
        return substreams_.at(s).size();
    }

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

    /** Per-shard substreams and their references' global positions. */
    std::vector<Trace> substreams_;
    std::vector<std::vector<SeqNo>> positions_;

    std::vector<std::unique_ptr<StreamSim>> sims_;
    CacheObserver *observer_ = nullptr;
    unsigned batchWindow_ = defaultReplayBatchWindow();
    bool ran_ = false;
};

/**
 * Process-wide counters of the sharded replay engine: replays run,
 * shards executed, stat-group merges, serial fallbacks forced by
 * non-shardable specs, and the substream-size distribution.
 * Increments are internally serialized; read between runs.
 */
stats::StatGroup &shardedReplayStats();

/**
 * Record that a replay requesting shards fell back to the serial
 * engine (global-state policy, labeler, or prefetcher attached).
 * Called by the experiment layer's dispatch.
 */
void noteShardedReplayFallback();

} // namespace casim

#endif // CASIM_SIM_SHARDED_SIM_HH
