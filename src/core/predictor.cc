/**
 * @file
 * Implementation of the history-based sharing predictors.
 */

#include "core/predictor.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace casim {

TableSharingPredictor::TableSharingPredictor(const PredictorConfig &config)
    : config_(config),
      ctrMax_(static_cast<std::uint8_t>((1u << config.counterBits) - 1)),
      table_(std::size_t{1} << config.indexBits,
             static_cast<std::uint8_t>(config.initialValue)),
      stats_("predictor"),
      predictions_(stats_.addCounter("lookups",
                                     "fill-time predictions made")),
      predictedShared_(stats_.addCounter("predicted_shared",
                                         "fills predicted shared")),
      trainings_(stats_.addCounter("trainings",
                                   "residency outcomes applied"))
{
    casim_assert(config.indexBits >= 4 && config.indexBits <= 24,
                 "unreasonable predictor size 2^", config.indexBits);
    casim_assert(config.counterBits >= 1 && config.counterBits <= 8,
                 "bad counter width ", config.counterBits);
    casim_assert(config.threshold <= ctrMax_,
                 "threshold above counter maximum");
    casim_assert(config.initialValue <= ctrMax_,
                 "initial value above counter maximum");
}

std::size_t
TableSharingPredictor::indexOf(std::uint64_t key) const
{
    return static_cast<std::size_t>(mix64(key)) &
           ((std::size_t{1} << config_.indexBits) - 1);
}

bool
TableSharingPredictor::predictShared(const ReplContext &fill)
{
    ++predictions_;
    const bool shared =
        table_[indexOf(fillKey(fill))] >= config_.threshold;
    predictedShared_ += shared ? 1 : 0;
    return shared;
}

void
TableSharingPredictor::train(const ResidencyOutcome &outcome)
{
    ++trainings_;
    auto &ctr = table_[indexOf(trainKey(outcome))];
    if (outcome.shared()) {
        if (ctr < ctrMax_)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

unsigned
TableSharingPredictor::counterForKey(std::uint64_t key) const
{
    return table_[indexOf(key)];
}

double
TableSharingPredictor::predictedSharedFraction() const
{
    if (predictions_.value() == 0)
        return 0.0;
    return static_cast<double>(predictedShared_.value()) /
           static_cast<double>(predictions_.value());
}

HybridSharingPredictor::HybridSharingPredictor(
    const PredictorConfig &config)
    : addr_(config), pc_(config)
{
}

bool
HybridSharingPredictor::predictShared(const ReplContext &fill)
{
    const bool by_addr = addr_.predictShared(fill);
    const bool by_pc = pc_.predictShared(fill);
    return by_addr && by_pc;
}

void
HybridSharingPredictor::train(const ResidencyOutcome &outcome)
{
    addr_.train(outcome);
    pc_.train(outcome);
}

TaggedSharingPredictor::TaggedSharingPredictor(
    const PredictorConfig &config, unsigned ways, unsigned tag_bits,
    bool by_pc)
    : config_(config), ways_(ways),
      tagMask_((tag_bits >= 32) ? ~0u : ((1u << tag_bits) - 1)),
      byPc_(by_pc),
      ctrMax_(static_cast<std::uint8_t>((1u << config.counterBits) - 1)),
      table_((std::size_t{1} << config.indexBits) * ways),
      stats_("tagged_predictor"),
      predictions_(stats_.addCounter("lookups",
                                     "fill-time predictions made")),
      tagHits_(stats_.addCounter("tag_hits",
                                 "predictions served by a tag match"))
{
    casim_assert(ways >= 1 && ways <= 16,
                 "bad predictor associativity ", ways);
    casim_assert(tag_bits >= 4 && tag_bits <= 32,
                 "bad predictor tag width ", tag_bits);
}

std::uint64_t
TaggedSharingPredictor::keyOf(Addr block_addr, PC pc) const
{
    return byPc_ ? pc : blockNumber(block_addr);
}

TaggedSharingPredictor::Entry *
TaggedSharingPredictor::lookup(std::uint64_t key, bool allocate)
{
    const std::uint64_t hash = mix64(key);
    const std::size_t set =
        static_cast<std::size_t>(hash) &
        ((std::size_t{1} << config_.indexBits) - 1);
    const std::uint32_t tag =
        static_cast<std::uint32_t>(hash >> config_.indexBits) &
        tagMask_;
    Entry *base = &table_[set * ways_];

    for (unsigned way = 0; way < ways_; ++way) {
        Entry &entry = base[way];
        if (entry.valid && entry.tag == tag) {
            entry.lastUse = ++clock_;
            return &entry;
        }
    }
    if (!allocate)
        return nullptr;
    // Reuse the least recently used (or first invalid) way.
    Entry *victim = base;
    for (unsigned way = 0; way < ways_; ++way) {
        if (!base[way].valid) {
            victim = &base[way];
            break;
        }
        if (base[way].lastUse < victim->lastUse)
            victim = &base[way];
    }
    victim->valid = 1;
    victim->tag = tag;
    victim->counter = static_cast<std::uint8_t>(config_.initialValue);
    victim->lastUse = ++clock_;
    return victim;
}

bool
TaggedSharingPredictor::predictShared(const ReplContext &fill)
{
    ++predictions_;
    const Entry *entry =
        lookup(keyOf(fill.blockAddr, fill.pc), false);
    if (entry == nullptr)
        return config_.initialValue >= config_.threshold;
    ++tagHits_;
    return entry->counter >= config_.threshold;
}

void
TaggedSharingPredictor::train(const ResidencyOutcome &outcome)
{
    Entry *entry = lookup(keyOf(outcome.addr, outcome.fillPC), true);
    if (outcome.shared()) {
        if (entry->counter < ctrMax_)
            ++entry->counter;
    } else {
        if (entry->counter > 0)
            --entry->counter;
    }
}

double
TaggedSharingPredictor::tagCoverage() const
{
    return predictions_.value() == 0
               ? 0.0
               : static_cast<double>(tagHits_.value()) /
                     static_cast<double>(predictions_.value());
}

namespace {

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

bool
LabelerEvaluator::predictShared(const ReplContext &fill)
{
    const bool predicted = inner_.predictShared(fill);
    if (truth_ != nullptr) {
        const bool actual = truth_->predictShared(fill);
        if (predicted && actual)
            ++tp_;
        else if (predicted && !actual)
            ++fp_;
        else if (!predicted && actual)
            ++fn_;
        else
            ++tn_;
    }
    return predicted;
}

void
LabelerEvaluator::train(const ResidencyOutcome &outcome)
{
    const bool predicted = outcome.predictedShared;
    const bool actual = outcome.shared();
    if (predicted && actual)
        ++otp_;
    else if (predicted && !actual)
        ++ofp_;
    else if (!predicted && actual)
        ++ofn_;
    else
        ++otn_;
    inner_.train(outcome);
}

double
LabelerEvaluator::accuracy() const
{
    return ratio(tp_.value() + tn_.value(),
                 tp_.value() + tn_.value() + fp_.value() + fn_.value());
}

double
LabelerEvaluator::precision() const
{
    return ratio(tp_.value(), tp_.value() + fp_.value());
}

double
LabelerEvaluator::recall() const
{
    return ratio(tp_.value(), tp_.value() + fn_.value());
}

double
LabelerEvaluator::outcomeAccuracy() const
{
    return ratio(otp_.value() + otn_.value(),
                 otp_.value() + otn_.value() + ofp_.value() +
                     ofn_.value());
}

double
LabelerEvaluator::outcomePrecision() const
{
    return ratio(otp_.value(), otp_.value() + ofp_.value());
}

double
LabelerEvaluator::outcomeRecall() const
{
    return ratio(otp_.value(), otp_.value() + ofn_.value());
}

} // namespace casim
