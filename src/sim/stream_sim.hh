/**
 * @file
 * Stream replayer: drives a captured LLC reference stream through a
 * standalone LLC under any replacement policy, with optional fill-time
 * labeling (oracle/predictor), sharing tracking, and eviction-time
 * awareness scoring.  This is where OPT and the oracle experiments run,
 * all policies seeing the identical reference stream.
 */

#ifndef CASIM_SIM_STREAM_SIM_HH
#define CASIM_SIM_STREAM_SIM_HH

#include <memory>

#include "core/awareness.hh"
#include "core/oracle.hh"
#include "mem/cache.hh"
#include "mem/prefetcher.hh"
#include "trace/trace.hh"

namespace casim {

class PageCursor;

/** Replays an LLC reference stream through one cache. */
class StreamSim : public CacheObserver
{
  public:
    /**
     * @param stream The captured LLC reference stream.
     * @param geo    LLC geometry (shard-local when `shard` is set).
     * @param policy Replacement policy sized for `geo`.
     * @param shard  Set shard the cache implements; defaults to the
     *               full set range (see CacheShard).  A shard walks the
     *               whole stream but replays only the references whose
     *               low shard.bits set-index bits equal shard.index,
     *               each at its global stream position — the key OPT's
     *               next-use lookups, fillSeq instrumentation and the
     *               oracle label planes use.
     */
    StreamSim(const Trace &stream, const CacheGeometry &geo,
              std::unique_ptr<ReplPolicy> policy, CacheShard shard = {});

    /** Attach a fill-time labeler (oracle or predictor); may be null. */
    void setLabeler(FillLabeler *labeler) { labeler_ = labeler; }

    /** Forward residency events to an additional observer. */
    void setObserver(CacheObserver *observer) { chained_ = observer; }

    /** Attach an eviction-time awareness scorer; may be null. */
    void
    setAwarenessScorer(AwarenessScorer *scorer)
    {
        scorer_ = scorer;
    }

    /**
     * Attach an LLC prefetcher; may be null.  Prefetch fills consult
     * the labeler like demand fills but are not counted as demand
     * accesses.  Incompatible with OPT replacement, whose per-fill
     * next-use lookup assumes demand fills only.
     */
    void setPrefetcher(Prefetcher *prefetcher)
    {
        prefetcher_ = prefetcher;
    }

    /**
     * Replay the stream (a shard: its own references) and flush
     * residencies.  The cache gets its CacheBlock payload only if an
     * attachment reads block state: a chained observer, an awareness
     * scorer or a prefetcher.  Otherwise the replay runs lean —
     * identical counters, no per-way payload — and a labeler that
     * trains (FillLabeler::trains) learns from a 16-byte residency
     * record per way instead, with the same outcomes in the same
     * order.
     */
    void run();

    /** References run() replayed: the whole stream, or the shard's. */
    std::size_t replayed() const { return replayed_; }

    /** The simulated LLC. */
    Cache &cache() { return *cache_; }
    const Cache &cache() const { return *cache_; }

    /** Demand hits observed. */
    std::uint64_t hits() const { return cache_->demandHits(); }

    /** Demand misses observed. */
    std::uint64_t misses() const { return cache_->demandMisses(); }

    /** Miss ratio over the replayed stream (0 if empty). */
    double missRatio() const;

    // CacheObserver interface (internal chaining).
    void onHit(const CacheBlock &block, const ReplContext &ctx) override;
    void onMiss(const ReplContext &ctx) override;
    void onFill(const CacheBlock &block, const ReplContext &ctx) override;
    void onResidencyEnd(const CacheBlock &block) override;

  private:
    /**
     * What a training labeler needs of one way's residency beyond its
     * tag (the fill label is a bit of sharedLabels_): kept instead of
     * the 64-byte CacheBlock payload when nothing else reads blocks.
     */
    struct ResidencyRecord
    {
        PC fillPC = 0;
        std::uint64_t touchedMask = 0;
    };

    /** Issue the prefetches triggered by one demand reference. */
    void runPrefetcher(const MemAccess &access, SeqNo position);

    /** The residency record of (set, way). */
    ResidencyRecord &
    recordAt(unsigned set, unsigned way)
    {
        return records_[static_cast<std::size_t>(set) *
                            cache_->geometry().ways +
                        way];
    }

    /** Train the labeler on the recorded residency at (set, way). */
    void trainRecord(unsigned set, unsigned way);

    /**
     * Resolve stream_[i] — the per-access body of the replay loop —
     * with the cache's policy seen as `policy` (see visitPolicy).
     */
    template <typename Policy>
    [[gnu::always_inline]] inline void stepWith(Policy &policy,
                                                std::size_t i);

    /**
     * The replay loop: step every reference in stream order (a shard:
     * route each chunk of the stream and step its own references).
     * Returns how many references it stepped.
     */
    template <typename Policy>
    std::size_t replay(Policy &policy, PageCursor &cursor);

    const Trace &stream_;
    CacheShard shard_;
    std::unique_ptr<Cache> cache_;
    FillLabeler *labeler_ = nullptr;
    CacheObserver *chained_ = nullptr;
    AwarenessScorer *scorer_ = nullptr;
    Prefetcher *prefetcher_ = nullptr;
    std::vector<Addr> prefetchQueue_;

    /**
     * Lean training state, one record per (set, way) and one label
     * bitmap per set; empty unless run() chose record training.
     */
    std::vector<ResidencyRecord> records_;
    std::vector<std::uint64_t> sharedLabels_;

    /**
     * Victim handler reporting evictions (at stream position now_) to
     * the attached awareness scorer, or training the labeler on the
     * victim's residency record; null when neither is attached.  Built
     * once per run and shared by the demand and prefetch fill paths so
     * the scorer sees every replacement decision.
     */
    Cache::VictimHandler onEvict_;

    SeqNo now_ = 0;
    std::size_t replayed_ = 0;
    bool ran_ = false;
};

} // namespace casim

#endif // CASIM_SIM_STREAM_SIM_HH
