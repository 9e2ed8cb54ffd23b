/**
 * @file
 * History-based fill-time sharing predictors — the realistic
 * implementations of the oracle the paper studies (and finds wanting).
 *
 * Both predictors are tables of saturating counters trained by residency
 * outcomes: when a block leaves the LLC, the entry its fill mapped to is
 * incremented if the residency was shared and decremented otherwise.  A
 * fill is predicted SHARED when its entry is at or above a threshold.
 * The block-address predictor indexes by block address; the PC predictor
 * indexes by the PC of the fill-triggering instruction.
 */

#ifndef CASIM_CORE_PREDICTOR_HH
#define CASIM_CORE_PREDICTOR_HH

#include <memory>
#include <vector>

#include "core/oracle.hh"

namespace casim {

/** Geometry/behaviour knobs shared by the table predictors. */
struct PredictorConfig
{
    /** log2 of the number of table entries. */
    unsigned indexBits = 14;

    /** Width of each saturating counter. */
    unsigned counterBits = 3;

    /** Counter value at or above which a fill is predicted SHARED. */
    unsigned threshold = 4;

    /** Initial counter value (weakly not-shared by default). */
    unsigned initialValue = 3;
};

/**
 * Common machinery of the history-based table predictors.
 */
class TableSharingPredictor : public FillLabeler
{
  public:
    explicit TableSharingPredictor(const PredictorConfig &config);

    bool predictShared(const ReplContext &fill) override;
    void train(const ResidencyOutcome &outcome) override;
    bool trains() const override { return true; }

    /** Counter value for a raw key (exposed for tests). */
    unsigned counterForKey(std::uint64_t key) const;

    /** Predictions made so far. */
    std::uint64_t predictions() const { return predictions_.value(); }

    /** Fraction of predictions that were SHARED. */
    double predictedSharedFraction() const;

    /** Training events applied so far. */
    std::uint64_t trainings() const { return trainings_.value(); }

    /** Lookup/label/training counters. */
    const stats::StatGroup &stats() const { return stats_; }

  protected:
    /** Fill-time key (address or PC). */
    virtual std::uint64_t fillKey(const ReplContext &fill) const = 0;

    /** Training-time key reconstructed from the ended residency. */
    virtual std::uint64_t
    trainKey(const ResidencyOutcome &outcome) const = 0;

  private:
    std::size_t indexOf(std::uint64_t key) const;

    PredictorConfig config_;
    std::uint8_t ctrMax_;
    std::vector<std::uint8_t> table_;
    stats::StatGroup stats_;
    stats::Counter &predictions_;
    stats::Counter &predictedShared_;
    stats::Counter &trainings_;
};

/** Predictor indexed by the filled block's address. */
class AddressSharingPredictor : public TableSharingPredictor
{
  public:
    using TableSharingPredictor::TableSharingPredictor;
    std::string name() const override { return "addr_pred"; }

  protected:
    std::uint64_t
    fillKey(const ReplContext &fill) const override
    {
        return blockNumber(fill.blockAddr);
    }

    std::uint64_t
    trainKey(const ResidencyOutcome &outcome) const override
    {
        return blockNumber(outcome.addr);
    }
};

/** Predictor indexed by the PC of the fill-triggering instruction. */
class PcSharingPredictor : public TableSharingPredictor
{
  public:
    using TableSharingPredictor::TableSharingPredictor;
    std::string name() const override { return "pc_pred"; }

  protected:
    std::uint64_t
    fillKey(const ReplContext &fill) const override
    {
        return fill.pc;
    }

    std::uint64_t
    trainKey(const ResidencyOutcome &outcome) const override
    {
        return outcome.fillPC;
    }
};

/**
 * Extension beyond the paper: predict SHARED only when the address and
 * PC tables agree, trading coverage for precision.
 */
class HybridSharingPredictor : public FillLabeler
{
  public:
    explicit HybridSharingPredictor(const PredictorConfig &config);

    bool predictShared(const ReplContext &fill) override;
    void train(const ResidencyOutcome &outcome) override;
    bool trains() const override { return true; }
    std::string name() const override { return "hybrid_pred"; }

    /** The address component (for inspection). */
    AddressSharingPredictor &addressPart() { return addr_; }

    /** The PC component (for inspection). */
    PcSharingPredictor &pcPart() { return pc_; }

  private:
    AddressSharingPredictor addr_;
    PcSharingPredictor pc_;
};

/**
 * Extension beyond the paper: a tagged, set-associative sharing
 * predictor.  The untagged tables (above) alias every key into a
 * shared counter; this variant stores partial tags in small
 * predictor sets with LRU replacement, eliminating destructive
 * aliasing at the cost of coverage (untracked keys fall back to a
 * default prediction).  Ablation A3 shows aliasing is not what makes
 * the history predictors fail; this class makes the same point with
 * hardware-faithful bookkeeping.
 */
class TaggedSharingPredictor : public FillLabeler
{
  public:
    /**
     * @param config    Table geometry (indexBits selects the set
     *                  count; counters per entry as in the untagged
     *                  tables).
     * @param ways      Predictor-set associativity.
     * @param tag_bits  Partial tag width stored per entry.
     * @param by_pc     Key on the fill PC instead of the block
     *                  address.
     */
    TaggedSharingPredictor(const PredictorConfig &config,
                           unsigned ways = 4, unsigned tag_bits = 12,
                           bool by_pc = false);

    bool predictShared(const ReplContext &fill) override;
    void train(const ResidencyOutcome &outcome) override;
    bool trains() const override { return true; }
    std::string
    name() const override
    {
        return byPc_ ? "tagged_pc_pred" : "tagged_addr_pred";
    }

    /** Fraction of predictions served by a tag match. */
    double tagCoverage() const;


    /** Predictions made so far. */
    std::uint64_t predictions() const { return predictions_.value(); }

    /** Lookup/tag-hit counters. */
    const stats::StatGroup &stats() const { return stats_; }

  private:
    struct Entry
    {
        std::uint32_t tag = 0;
        std::uint8_t counter = 0;
        std::uint8_t valid = 0;
        std::uint32_t lastUse = 0;
    };

    std::uint64_t keyOf(Addr block_addr, PC pc) const;
    Entry *lookup(std::uint64_t key, bool allocate);

    PredictorConfig config_;
    unsigned ways_;
    std::uint32_t tagMask_;
    bool byPc_;
    std::uint8_t ctrMax_;
    std::vector<Entry> table_;
    std::uint32_t clock_ = 0;
    stats::StatGroup stats_;
    stats::Counter &predictions_;
    stats::Counter &tagHits_;
};

/**
 * Wraps a labeler to measure its quality during a run.
 *
 * Two confusion matrices are kept: fill-time agreement with a ground
 * truth labeler (normally the oracle), and residency-outcome agreement
 * measured at eviction using the block's recorded fill label.
 */
class LabelerEvaluator : public FillLabeler
{
  public:
    /**
     * @param inner The labeler under test (predictions are forwarded).
     * @param truth Ground-truth labeler consulted at every fill; may be
     *              nullptr to disable fill-time scoring.
     */
    LabelerEvaluator(FillLabeler &inner, FillLabeler *truth)
        : inner_(inner), truth_(truth), stats_("labeler_eval"),
          tp_(stats_.addCounter("fill_true_pos",
                                "fill-time agreement: both shared")),
          fp_(stats_.addCounter(
              "fill_false_pos",
              "fill-time: predicted shared, truth private")),
          tn_(stats_.addCounter("fill_true_neg",
                                "fill-time agreement: both private")),
          fn_(stats_.addCounter(
              "fill_false_neg",
              "fill-time: predicted private, truth shared")),
          otp_(stats_.addCounter("outcome_true_pos",
                                 "eviction-time: both shared")),
          ofp_(stats_.addCounter(
              "outcome_false_pos",
              "eviction-time: predicted shared, residency private")),
          otn_(stats_.addCounter("outcome_true_neg",
                                 "eviction-time: both private")),
          ofn_(stats_.addCounter(
              "outcome_false_neg",
              "eviction-time: predicted private, residency shared"))
    {
    }

    bool predictShared(const ReplContext &fill) override;
    void train(const ResidencyOutcome &outcome) override;
    bool trains() const override { return true; }
    std::string name() const override { return inner_.name(); }

    /** Fill-time counts against the ground truth labeler. */
    std::uint64_t truePositives() const { return tp_.value(); }
    std::uint64_t falsePositives() const { return fp_.value(); }
    std::uint64_t trueNegatives() const { return tn_.value(); }
    std::uint64_t falseNegatives() const { return fn_.value(); }

    /** Fill-time accuracy against the ground truth (0 if no fills). */
    double accuracy() const;

    /** Of fills predicted SHARED, the fraction truly shared. */
    double precision() const;

    /** Of truly shared fills, the fraction predicted SHARED. */
    double recall() const;

    /** Residency-outcome accuracy measured at eviction. */
    double outcomeAccuracy() const;

    /** Residency-outcome precision measured at eviction. */
    double outcomePrecision() const;

    /** Residency-outcome recall measured at eviction. */
    double outcomeRecall() const;

    /** Both confusion matrices as counters. */
    const stats::StatGroup &stats() const { return stats_; }

  private:
    FillLabeler &inner_;
    FillLabeler *truth_;
    stats::StatGroup stats_;
    stats::Counter &tp_, &fp_, &tn_, &fn_;
    stats::Counter &otp_, &ofp_, &otn_, &ofn_;
};

} // namespace casim

#endif // CASIM_CORE_PREDICTOR_HH
