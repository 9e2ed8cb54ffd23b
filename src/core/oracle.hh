/**
 * @file
 * Fill-time sharing labelers: the interface a sharing-aware LLC
 * controller would need, the offline oracle that upper-bounds it, and a
 * residency-replay variant used as an ablation.
 *
 * The paper's generic oracle answers one question at fill time: "will
 * this block be actively shared during its LLC residency?".  The primary
 * implementation here is policy-independent: a fill at stream position i
 * is SHARED iff at least two distinct cores reference the block within
 * the next `window` stream positions.
 */

#ifndef CASIM_CORE_ORACLE_HH
#define CASIM_CORE_ORACLE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "mem/repl/policy.hh"
#include "trace/next_use.hh"

namespace casim {

/**
 * True when the CASIM_NO_LABEL_PLANES environment variable disables
 * the precomputed label planes, forcing OracleLabeler back onto the
 * per-fill scan path.  Used by tier1.sh to diff the two
 * implementations; both produce byte-identical output.
 */
bool oracleScanForced();

/**
 * One ended LLC residency of a replay, as StreamSim reports it to
 * training labelers and the SharingTracker: the block, who touched
 * it, how many hits it served and whether it was written.
 */
struct ResidencyOutcome
{
    /** Block-aligned address of the residency. */
    Addr addr = 0;

    /** PC of the instruction whose miss triggered the fill. */
    PC fillPC = 0;

    /** Bit c set iff core c accessed the block during the residency. */
    std::uint64_t touchedMask = 0;

    /** Demand hits the residency served. */
    std::uint64_t hits = 0;

    /** Fill-time sharing label the residency was installed with. */
    bool predictedShared = false;

    /** True iff any store touched the block during the residency. */
    bool written = false;

    /** True iff >= 2 distinct cores touched the block. */
    bool shared() const { return popCount(touchedMask) >= 2; }
};

/**
 * The per-way part of a live residency's record, kept by StreamSim
 * beside the tags while the residency lasts; its written and label
 * bits live in per-set masks.
 */
struct WayResidency
{
    /** PC of the instruction whose miss triggered the fill. */
    PC fillPC = 0;

    /** Bit c set iff core c accessed the block so far. */
    std::uint64_t touchedMask = 0;

    /** Demand hits served so far. */
    std::uint64_t hits = 0;
};

/**
 * Interface of a fill-time sharing labeler.
 *
 * predictShared() is consulted when a block is filled; train() delivers
 * the ground-truth outcome when the residency ends, which online
 * predictors use for learning and oracles ignore.
 */
class FillLabeler
{
  public:
    virtual ~FillLabeler() = default;

    /** Label the fill described by `fill` (fill.seq = stream position). */
    virtual bool predictShared(const ReplContext &fill) = 0;

    /** Residency outcome feedback: a residency just left the cache. */
    virtual void
    train(const ResidencyOutcome &outcome)
    {
        (void)outcome;
    }

    /**
     * Whether train() consumes the outcomes.  StreamSim records
     * residency outcomes only for a labeler that learns, so one that
     * does not lets the replay skip them.
     */
    virtual bool trains() const = 0;

    /** Short name used in reports. */
    virtual std::string name() const = 0;
};

/** Labeler that marks every fill private (baseline behaviour). */
class NeverSharedLabeler : public FillLabeler
{
  public:
    bool
    predictShared(const ReplContext &fill) override
    {
        (void)fill;
        return false;
    }
    bool trains() const override { return false; }
    std::string name() const override { return "never"; }
};

/** Labeler that marks every fill shared (protection stress test). */
class AlwaysSharedLabeler : public FillLabeler
{
  public:
    bool
    predictShared(const ReplContext &fill) override
    {
        (void)fill;
        return true;
    }
    bool trains() const override { return false; }
    std::string name() const override { return "always"; }
};

/**
 * The offline sharing oracle (future-window definition).
 *
 * A fill is labeled SHARED when (a) at least two distinct cores
 * reference the block within the future window — the residency "will
 * be shared" — and (b) the block's next reference itself falls inside
 * the near window, because protection cannot save a block whose reuse
 * lies beyond any plausible residency: retaining it would only
 * displace nearer-reuse data (the label would be pure damage).
 */
class OracleLabeler : public FillLabeler
{
  public:
    /**
     * @param index  Next-use index over the exact stream being replayed.
     * @param window Future stream positions scanned from each fill.
     * @param near_window Maximum distance of the block's next use for
     *               the label to be useful; 0 means "same as window".
     */
    OracleLabeler(const NextUseIndex &index, SeqNo window,
                  SeqNo near_window = 0)
        : index_(index), window_(window),
          nearWindow_(near_window == 0 ? window : near_window),
          plane_(oracleScanForced()
                     ? nullptr
                     : &index.labelPlane(window_, nearWindow_)),
          stats_("oracle"),
          lookups_(stats_.addCounter("lookups", "fills labeled")),
          shared_(stats_.addCounter("shared_labels",
                                    "fills labeled shared")),
          private_(stats_.addCounter("private_labels",
                                     "fills labeled private")),
          nearVetoes_(stats_.addCounter(
              "near_vetoes",
              "shared-within-window fills vetoed by the near window"))
    {
    }

    bool
    predictShared(const ReplContext &fill) override
    {
        ++lookups_;
        std::uint8_t code;
        if (plane_ != nullptr && fill.seq < plane_->codes.size() &&
            index_.blockAt(fill.seq) == fill.blockAddr) {
            // Demand fill: the precomputed plane holds the decision.
            code = plane_->codes[fill.seq];
#ifdef CASIM_PARANOID
            casim_assert(code == index_.scanLabel(fill.blockAddr,
                                                  fill.seq, window_,
                                                  nearWindow_),
                         "label plane diverges from the scan oracle");
#endif
        } else {
            // Prefetch fills target a block other than the trace
            // record at fill.seq (or the plane is disabled): scan.
            code = index_.scanLabel(fill.blockAddr, fill.seq, window_,
                                    nearWindow_);
        }
        if (code == NextUseIndex::kLabelShared) {
            ++shared_;
            return true;
        }
        if (code == NextUseIndex::kLabelNearVeto)
            ++nearVetoes_;
        ++private_;
        return false;
    }

    bool trains() const override { return false; }
    std::string name() const override { return "oracle"; }

    /** The future window in effect. */
    SeqNo window() const { return window_; }

    /** The near (reuse) window in effect. */
    SeqNo nearWindow() const { return nearWindow_; }

    /** Label-split and veto counters. */
    const stats::StatGroup &stats() const { return stats_; }

  private:
    const NextUseIndex &index_;
    SeqNo window_;
    SeqNo nearWindow_;

    /** Precomputed labels for demand fills; null forces the scan. */
    const NextUseIndex::LabelPlane *plane_;

    stats::StatGroup stats_;
    stats::Counter &lookups_;
    stats::Counter &shared_;
    stats::Counter &private_;
    stats::Counter &nearVetoes_;
};

/**
 * Residency-replay oracle: labels the k-th fill of each block with the
 * sharing outcome its k-th residency had in a previously recorded
 * baseline run.  Used as an ablation against the future-window oracle.
 */
class ResidencyReplayLabeler : public FillLabeler
{
  public:
    /** Start with an empty label store; record via recordOutcome(). */
    ResidencyReplayLabeler() = default;

    /**
     * Record that the n-th residency (in record order) of `block_addr`
     * in the baseline run was shared or not.
     */
    void recordOutcome(Addr block_addr, bool was_shared);

    bool predictShared(const ReplContext &fill) override;
    bool trains() const override { return false; }
    std::string name() const override { return "residency_replay"; }

    /** Number of blocks with recorded outcomes. */
    std::size_t blocksRecorded() const { return outcomes_.size(); }

  private:
    struct BlockOutcomes
    {
        std::vector<bool> shared;
        std::size_t cursor = 0;
    };

    std::unordered_map<Addr, BlockOutcomes> outcomes_;
};

/** Default future window: 8x the LLC block capacity in stream slots. */
SeqNo defaultOracleWindow(std::uint64_t llc_bytes,
                          unsigned block_bytes = kBlockBytes);

} // namespace casim

#endif // CASIM_CORE_ORACLE_HH
