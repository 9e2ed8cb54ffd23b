/**
 * @file
 * Unit tests for the fill-time sharing predictors and the labeler
 * evaluator.
 */

#include <gtest/gtest.h>

#include "core/predictor.hh"

namespace casim {
namespace {

PredictorConfig
smallConfig()
{
    PredictorConfig config;
    config.indexBits = 8;
    config.counterBits = 3;
    config.threshold = 4;
    config.initialValue = 3;
    return config;
}

ReplContext
fill(Addr block, PC pc = 0x400)
{
    return ReplContext{block, pc, 0, false, 0, false};
}

ResidencyOutcome
outcome(Addr block, PC fill_pc, bool shared)
{
    ResidencyOutcome out;
    out.addr = block;
    out.fillPC = fill_pc;
    out.touchedMask = shared ? 0b11 : 0b01;
    return out;
}

TEST(AddressPredictor, InitiallyPredictsNotShared)
{
    AddressSharingPredictor predictor(smallConfig());
    EXPECT_FALSE(predictor.predictShared(fill(0x1000)));
    EXPECT_EQ(predictor.predictions(), 1u);
}

TEST(AddressPredictor, LearnsSharedBlocks)
{
    AddressSharingPredictor predictor(smallConfig());
    // Train the block shared twice: counter 3 -> 5, above threshold.
    predictor.train(outcome(0x1000, 0x400, true));
    predictor.train(outcome(0x1000, 0x400, true));
    EXPECT_TRUE(predictor.predictShared(fill(0x1000)));
    // A different block is unaffected (different table entry).
    EXPECT_FALSE(predictor.predictShared(fill(0x2540)));
    EXPECT_EQ(predictor.trainings(), 2u);
}

TEST(AddressPredictor, UnlearnsPrivateBlocks)
{
    AddressSharingPredictor predictor(smallConfig());
    predictor.train(outcome(0x1000, 0x400, true));
    predictor.train(outcome(0x1000, 0x400, true));
    EXPECT_TRUE(predictor.predictShared(fill(0x1000)));
    for (int i = 0; i < 3; ++i)
        predictor.train(outcome(0x1000, 0x400, false));
    EXPECT_FALSE(predictor.predictShared(fill(0x1000)));
}

TEST(AddressPredictor, CountersSaturate)
{
    AddressSharingPredictor predictor(smallConfig());
    for (int i = 0; i < 20; ++i)
        predictor.train(outcome(0x1000, 0x400, true));
    EXPECT_EQ(predictor.counterForKey(blockNumber(0x1000)), 7u);
    for (int i = 0; i < 20; ++i)
        predictor.train(outcome(0x1000, 0x400, false));
    EXPECT_EQ(predictor.counterForKey(blockNumber(0x1000)), 0u);
}

TEST(PcPredictor, KeysOnFillPc)
{
    PcSharingPredictor predictor(smallConfig());
    // Train PC 0xaaa as shared via several different blocks.
    predictor.train(outcome(0x1000, 0xaaa, true));
    predictor.train(outcome(0x2000, 0xaaa, true));
    // A brand-new block from the same PC predicts shared.
    EXPECT_TRUE(predictor.predictShared(fill(0x9000, 0xaaa)));
    // A different PC does not.
    EXPECT_FALSE(predictor.predictShared(fill(0x9000, 0xbbb)));
}

TEST(PcPredictor, PredictedSharedFraction)
{
    PcSharingPredictor predictor(smallConfig());
    predictor.train(outcome(0x0, 0xaaa, true));
    predictor.train(outcome(0x0, 0xaaa, true));
    predictor.predictShared(fill(0x0, 0xaaa)); // shared
    predictor.predictShared(fill(0x0, 0xbbb)); // not shared
    EXPECT_DOUBLE_EQ(predictor.predictedSharedFraction(), 0.5);
}

TEST(HybridPredictor, RequiresAgreement)
{
    HybridSharingPredictor hybrid(smallConfig());
    // Train only the PC side shared (different blocks, same PC).
    hybrid.train(outcome(0x1000, 0xaaa, true));
    hybrid.train(outcome(0x2000, 0xaaa, true));
    // Address side for 0x9000 is still below threshold: must disagree.
    EXPECT_FALSE(hybrid.predictShared(fill(0x9000, 0xaaa)));
    // Train the same block shared twice: now both sides agree.
    hybrid.train(outcome(0x9000, 0xaaa, true));
    hybrid.train(outcome(0x9000, 0xaaa, true));
    EXPECT_TRUE(hybrid.predictShared(fill(0x9000, 0xaaa)));
}

TEST(Evaluator, FillTimeConfusionMatrix)
{
    AlwaysSharedLabeler always;
    NeverSharedLabeler truth_never;
    LabelerEvaluator eval(always, &truth_never);
    eval.predictShared(fill(0x0));
    eval.predictShared(fill(0x40));
    // Predicted shared, truth not shared: false positives.
    EXPECT_EQ(eval.falsePositives(), 2u);
    EXPECT_EQ(eval.truePositives(), 0u);
    EXPECT_DOUBLE_EQ(eval.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(eval.precision(), 0.0);
}

TEST(Evaluator, PerfectAgreement)
{
    AlwaysSharedLabeler always;
    AlwaysSharedLabeler truth;
    LabelerEvaluator eval(always, &truth);
    for (int i = 0; i < 10; ++i)
        eval.predictShared(fill(i * 0x40));
    EXPECT_DOUBLE_EQ(eval.accuracy(), 1.0);
    EXPECT_DOUBLE_EQ(eval.precision(), 1.0);
    EXPECT_DOUBLE_EQ(eval.recall(), 1.0);
}

TEST(Evaluator, OutcomeMatrixFromBlocks)
{
    NeverSharedLabeler never;
    LabelerEvaluator eval(never, nullptr);

    ResidencyOutcome predicted_and_shared = outcome(0x0, 0x400, true);
    predicted_and_shared.predictedShared = true;
    ResidencyOutcome predicted_not_shared = outcome(0x40, 0x400, false);
    predicted_not_shared.predictedShared = true;
    ResidencyOutcome missed_shared = outcome(0x80, 0x400, true);
    missed_shared.predictedShared = false;
    ResidencyOutcome correct_negative = outcome(0xc0, 0x400, false);
    correct_negative.predictedShared = false;

    eval.train(predicted_and_shared);
    eval.train(predicted_not_shared);
    eval.train(missed_shared);
    eval.train(correct_negative);

    EXPECT_DOUBLE_EQ(eval.outcomeAccuracy(), 0.5);
    EXPECT_DOUBLE_EQ(eval.outcomePrecision(), 0.5);
    EXPECT_DOUBLE_EQ(eval.outcomeRecall(), 0.5);
}

TEST(Evaluator, ForwardsTrainingToInner)
{
    AddressSharingPredictor inner(smallConfig());
    LabelerEvaluator eval(inner, nullptr);
    eval.train(outcome(0x1000, 0x400, true));
    EXPECT_EQ(inner.trainings(), 1u);
    EXPECT_EQ(eval.name(), inner.name());
}

TEST(Predictor, ThresholdConfigRespected)
{
    PredictorConfig config = smallConfig();
    config.threshold = 1;
    config.initialValue = 0;
    AddressSharingPredictor predictor(config);
    EXPECT_FALSE(predictor.predictShared(fill(0x1000)));
    predictor.train(outcome(0x1000, 0x400, true));
    EXPECT_TRUE(predictor.predictShared(fill(0x1000)));
}

TEST(TaggedPredictor, LearnsWithoutAliasing)
{
    PredictorConfig config = smallConfig();
    config.indexBits = 6; // 64 sets x 4 ways
    TaggedSharingPredictor predictor(config);
    predictor.train(outcome(0x1000, 0x400, true));
    predictor.train(outcome(0x1000, 0x400, true));
    EXPECT_TRUE(predictor.predictShared(fill(0x1000)));
    // An untracked block falls back to the default (not shared).
    EXPECT_FALSE(predictor.predictShared(fill(0x7777000)));
}

TEST(TaggedPredictor, TagCoverageGrowsWithTraining)
{
    PredictorConfig config = smallConfig();
    config.indexBits = 8;
    TaggedSharingPredictor predictor(config);
    // Before training: no tags match.
    predictor.predictShared(fill(0x1000));
    EXPECT_DOUBLE_EQ(predictor.tagCoverage(), 0.0);
    predictor.train(outcome(0x1000, 0x400, true));
    predictor.predictShared(fill(0x1000));
    EXPECT_GT(predictor.tagCoverage(), 0.0);
}

TEST(TaggedPredictor, LruReplacementWithinSet)
{
    PredictorConfig config = smallConfig();
    config.indexBits = 4; // 16 sets x 4 ways: easy to overflow
    TaggedSharingPredictor predictor(config, 2);
    // Train many distinct blocks: older entries get replaced, but the
    // predictor must never crash and recent entries stay tracked.
    for (int i = 0; i < 500; ++i)
        predictor.train(outcome(static_cast<Addr>(i) * 0x40000, 0x400,
                                i % 2 == 0));
    SUCCEED();
}

TEST(TaggedPredictor, PcKeyedVariant)
{
    PredictorConfig config = smallConfig();
    TaggedSharingPredictor predictor(config, 4, 12, true);
    EXPECT_EQ(predictor.name(), "tagged_pc_pred");
    predictor.train(outcome(0x1000, 0xaaa, true));
    predictor.train(outcome(0x2000, 0xaaa, true));
    // A new block from the trained PC predicts shared.
    EXPECT_TRUE(predictor.predictShared(fill(0x9000, 0xaaa)));
    EXPECT_FALSE(predictor.predictShared(fill(0x9000, 0xbbb)));
}

TEST(TaggedPredictor, ConsistentOutcomesConvergePerfectly)
{
    // With tags there is no aliasing: consistent per-block behaviour
    // converges to exact predictions (unlike the untagged table).
    PredictorConfig config = smallConfig();
    config.indexBits = 8;
    TaggedSharingPredictor predictor(config);
    for (int round = 0; round < 8; ++round)
        for (int i = 0; i < 64; ++i)
            predictor.train(outcome(static_cast<Addr>(i) * 0x1000,
                                    0x400, i % 2 == 0));
    int correct = 0;
    for (int i = 0; i < 64; ++i) {
        const bool predicted = predictor.predictShared(
            fill(static_cast<Addr>(i) * 0x1000));
        correct += (predicted == (i % 2 == 0)) ? 1 : 0;
    }
    EXPECT_EQ(correct, 64);
}

// Property: a predictor trained on perfectly consistent outcomes
// converges to perfect outcome accuracy on a stable block population.
TEST(PredictorProperty, ConvergesOnStableBehaviour)
{
    PredictorConfig config = smallConfig();
    config.indexBits = 12; // keep aliasing among 64 blocks negligible
    AddressSharingPredictor predictor(config);
    // 64 blocks; block i is shared iff i is even.
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 64; ++i)
            predictor.train(
                outcome(static_cast<Addr>(i) * 0x1000, 0x400,
                        i % 2 == 0));
    }
    int correct = 0;
    for (int i = 0; i < 64; ++i) {
        const bool predicted = predictor.predictShared(
            fill(static_cast<Addr>(i) * 0x1000));
        correct += (predicted == (i % 2 == 0)) ? 1 : 0;
    }
    // Aliasing can cost a few blocks; demand near-perfect accuracy.
    EXPECT_GE(correct, 58);
}

} // namespace
} // namespace casim
