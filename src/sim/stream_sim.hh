/**
 * @file
 * Stream replayer: drives a captured LLC reference stream through a
 * standalone LLC under any replacement policy, with optional fill-time
 * labeling (oracle/predictor), sharing tracking, and eviction-time
 * awareness scoring.  This is where OPT and the oracle experiments run,
 * all policies seeing the identical reference stream.
 *
 * What the attachments read of a residency — which cores touched it,
 * how many hits it served, whether it was written, its fill PC, label
 * and prefetched bit — is StreamSim's own residency record, kept
 * beside the cache's tags and indexed by (set, way).
 */

#ifndef CASIM_SIM_STREAM_SIM_HH
#define CASIM_SIM_STREAM_SIM_HH

#include <memory>

#include "core/awareness.hh"
#include "core/oracle.hh"
#include "core/sharing_tracker.hh"
#include "mem/cache.hh"
#include "mem/prefetcher.hh"
#include "trace/trace.hh"

namespace casim {

class PageCursor;

/** Replays an LLC reference stream through one cache. */
class StreamSim
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
     *               next-use lookups and the oracle label planes use.
     */
    StreamSim(const Trace &stream, const CacheGeometry &geo,
              std::unique_ptr<ReplPolicy> policy, CacheShard shard = {});

    /**
     * Attach a fill-time labeler (oracle or predictor); may be null.
     * One that trains (FillLabeler::trains) gets every ended residency.
     */
    void setLabeler(FillLabeler *labeler) { labeler_ = labeler; }

    /**
     * Attach a sharing tracker; may be null.  It gets every demand
     * miss and every ended residency.
     */
    void setSharingTracker(SharingTracker *tracker) { tracker_ = tracker; }

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
     * Replay the stream (a shard: its own references), then end the
     * residencies still resident, set by set and ways ascending, and
     * empty the cache.  Ended residencies are reported in the order
     * they end: evictions in stream order, then that final walk.  The
     * residency record is kept only if something reads it — a training
     * labeler, a sharing tracker, an awareness scorer or a prefetcher;
     * otherwise the replay runs on the tags alone.
     */
    void run();

    /** True iff run() kept the residency record (see run()). */
    bool recordsResidencies() const { return !residency_.empty(); }

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

  private:
    /** The per-set part of the residency record: bit `way` of each. */
    struct SetResidency
    {
        /** Any store touched the residency. */
        std::uint64_t written = 0;

        /** The residency's fill-time sharing label. */
        std::uint64_t shared = 0;

        /** A prefetch installed it and no demand access hit it yet. */
        std::uint64_t prefetched = 0;
    };

    /** Issue the prefetches triggered by one demand reference. */
    void runPrefetcher(const MemAccess &access, SeqNo position);

    /** The residency records of `set`'s ways, indexed by way. */
    WayResidency *
    residencyRow(unsigned set)
    {
        return &residency_[static_cast<std::size_t>(set) *
                           cache_->geometry().ways];
    }

    /** Start the residency record of the block ctx just filled. */
    void startResidency(unsigned set, unsigned way,
                        const ReplContext &ctx, bool prefetched);

    /**
     * Report the residency at (set, way), which is still resident, to
     * the training labeler and the tracker.
     */
    void endResidency(unsigned set, unsigned way);

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
    SharingTracker *tracker_ = nullptr;
    AwarenessScorer *scorer_ = nullptr;
    Prefetcher *prefetcher_ = nullptr;
    std::vector<Addr> prefetchQueue_;

    /** The labeler if it trains, else null: who learns outcomes. */
    FillLabeler *trainee_ = nullptr;

    /**
     * The residency record: one WayResidency per (set, way) and one
     * SetResidency per set; both empty unless run() keeps the record.
     */
    std::vector<WayResidency> residency_;
    std::vector<SetResidency> setResidency_;

    /**
     * Victim handler scoring the eviction (at stream position now_)
     * and ending the victim's residency; null unless the record is
     * kept.  Built once per run and shared by the demand and prefetch
     * fill paths so the scorer sees every replacement decision.
     */
    Cache::VictimHandler onEvict_;

    SeqNo now_ = 0;
    std::size_t replayed_ = 0;
    bool ran_ = false;
};

} // namespace casim

#endif // CASIM_SIM_STREAM_SIM_HH
