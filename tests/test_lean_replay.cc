/**
 * @file
 * Tests of StreamSim's residency record:
 *
 *  - LeanReplay: the record (the replay's only per-way payload beside
 *    the tags) exists exactly when an attachment reads residencies; a
 *    plain, OPT, oracle or sharded replay runs on the tags alone.
 *  - StreamSim: what the record reports of each ended residency —
 *    touched cores, hits, stores, fill PC and label — on hand-made
 *    streams, and that every residency ends exactly once.
 *
 * ReferenceResidency (test_reference_model.cc) checks the same
 * reports against an independent LRU model on larger streams.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/awareness.hh"
#include "core/oracle.hh"
#include "core/predictor.hh"
#include "core/sharing_aware.hh"
#include "core/sharing_tracker.hh"
#include "mem/prefetcher.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/opt.hh"
#include "sim/stream_sim.hh"
#include "trace/next_use.hh"

namespace casim {
namespace {

/** Four cores, 30% stores, a footprint about twice the capacity. */
const Trace &
leanTrace()
{
    static const Trace trace = [] {
        Rng rng(1307);
        Trace t("lean", 4);
        for (int i = 0; i < 20000; ++i)
            t.append(rng.below(2048) * kBlockBytes,
                     0x400 + rng.below(32) * 4,
                     static_cast<CoreId>(rng.below(4)), rng.chance(0.3));
        return t;
    }();
    return trace;
}

const NextUseIndex &
leanIndex()
{
    static const NextUseIndex index(leanTrace());
    return index;
}

CacheGeometry
leanGeometry()
{
    return CacheGeometry{64 * 1024, 8, kBlockBytes}; // 128 sets
}

/** A plain LRU replay of leanTrace() at leanGeometry(). */
std::unique_ptr<StreamSim>
lruSim()
{
    const CacheGeometry geo = leanGeometry();
    return std::make_unique<StreamSim>(
        leanTrace(), geo,
        requirePolicyFactory("lru")(geo.numSets(), geo.ways));
}

TEST(LeanReplay, UnobservedReplaysAllocateNoPayload)
{
    const CacheGeometry geo = leanGeometry();

    auto plain = lruSim();
    EXPECT_FALSE(plain->recordsResidencies());
    plain->run();
    EXPECT_FALSE(plain->recordsResidencies());

    StreamSim opt(leanTrace(), geo,
                  std::make_unique<OptPolicy>(geo.numSets(), geo.ways,
                                              leanIndex()));
    opt.run();
    EXPECT_FALSE(opt.recordsResidencies());

    // The oracle labels fills but learns nothing from residencies.
    OracleLabeler oracle(leanIndex(), 4 * (geo.sizeBytes / kBlockBytes));
    StreamSim labeled(leanTrace(), geo,
                      std::make_unique<SharingAwareWrapper>(
                          requirePolicyFactory("lru")(geo.numSets(),
                                                      geo.ways)));
    labeled.setLabeler(&oracle);
    labeled.run();
    EXPECT_FALSE(labeled.recordsResidencies());
}

TEST(LeanReplay, ObservedReplaysAllocateThePayload)
{
    const CacheGeometry geo = leanGeometry();

    AwarenessScorer scorer(leanIndex(), 4 * (geo.sizeBytes / kBlockBytes));
    auto scored = lruSim();
    scored->setAwarenessScorer(&scorer);
    scored->run();
    EXPECT_TRUE(scored->recordsResidencies());
    EXPECT_GT(scorer.evictions(), 0u);

    // The "sharing" request kind: an attached SharingTracker.
    SharingTracker tracker(leanTrace().numCores());
    auto tracked = lruSim();
    tracked->setSharingTracker(&tracker);
    tracked->run();
    EXPECT_TRUE(tracked->recordsResidencies());
    EXPECT_GT(tracker.sharedResidencies() + tracker.privateResidencies(),
              0u);

    StridePrefetcher prefetcher;
    auto prefetched = lruSim();
    prefetched->setPrefetcher(&prefetcher);
    prefetched->run();
    EXPECT_TRUE(prefetched->recordsResidencies());

    PcSharingPredictor predictor(PredictorConfig{});
    auto trained = lruSim();
    trained->setLabeler(&predictor);
    trained->run();
    EXPECT_TRUE(trained->recordsResidencies());
}

TEST(LeanReplay, LabelersDeclareWhetherTheyTrain)
{
    PredictorConfig config;
    OracleLabeler oracle(leanIndex(), 1024);
    NeverSharedLabeler never;
    AlwaysSharedLabeler always;
    ResidencyReplayLabeler residency;
    EXPECT_FALSE(oracle.trains());
    EXPECT_FALSE(never.trains());
    EXPECT_FALSE(always.trains());
    EXPECT_FALSE(residency.trains());

    AddressSharingPredictor addr(config);
    PcSharingPredictor pc(config);
    HybridSharingPredictor hybrid(config);
    TaggedSharingPredictor tagged(config);
    LabelerEvaluator evaluator(oracle, nullptr);
    EXPECT_TRUE(addr.trains());
    EXPECT_TRUE(pc.trains());
    EXPECT_TRUE(hybrid.trains());
    EXPECT_TRUE(tagged.trains());
    EXPECT_TRUE(evaluator.trains());
}

// ---------------------------------------------------------------------
// StreamSim: the residency record on hand-made streams
// ---------------------------------------------------------------------

/** A training labeler that labels fills at chosen PCs and keeps every
 * outcome in the order StreamSim reports them. */
class OutcomeLog : public FillLabeler
{
  public:
    bool
    predictShared(const ReplContext &fill) override
    {
        return fill.pc == kLabeledPc;
    }
    void train(const ResidencyOutcome &outcome) override
    {
        outcomes.push_back(outcome);
    }
    bool trains() const override { return true; }
    std::string name() const override { return "outcome_log"; }

    static constexpr PC kLabeledPc = 0x777;
    std::vector<ResidencyOutcome> outcomes;
};

/** 4 sets x 2 ways; blocks 0x000, 0x100, 0x200, ... share set 0. */
const CacheGeometry kTinyGeo{512, 2, kBlockBytes};

/** Replay `trace` on kTinyGeo with LRU, logging every outcome. */
std::vector<ResidencyOutcome>
outcomesOf(const Trace &trace, SharingTracker *tracker = nullptr)
{
    OutcomeLog log;
    StreamSim sim(trace, kTinyGeo,
                  requirePolicyFactory("lru")(kTinyGeo.numSets(),
                                              kTinyGeo.ways));
    sim.setLabeler(&log);
    sim.setSharingTracker(tracker);
    sim.run();
    EXPECT_EQ(sim.cache().validBlocks(), 0u);
    return log.outcomes;
}

TEST(StreamSim, ResidencyInstrumentation)
{
    Trace trace("record", 4);
    trace.append(0x1000, 0xabc, 0, false); // fill by core 0
    trace.append(0x1000, 0x400, 2, true);  // store hit by core 2
    trace.append(0x1000, 0x404, 0, false); // load hit by core 0
    trace.append(0x1040, OutcomeLog::kLabeledPc, 1, true); // store fill
    trace.append(0x1080, 0x408, 3, false); // never hit again
    const std::vector<ResidencyOutcome> outcomes = outcomesOf(trace);
    ASSERT_EQ(outcomes.size(), 3u);

    // The end-of-run walk visits sets in order: 0x1000 is in set 0.
    const ResidencyOutcome &shared = outcomes[0];
    EXPECT_EQ(shared.addr, 0x1000u);
    EXPECT_EQ(shared.fillPC, 0xabcu);
    EXPECT_EQ(shared.touchedMask, 0b101u);
    EXPECT_EQ(shared.hits, 2u);
    EXPECT_TRUE(shared.written);
    EXPECT_TRUE(shared.shared());
    EXPECT_FALSE(shared.predictedShared);

    const ResidencyOutcome &labeled = outcomes[1];
    EXPECT_EQ(labeled.addr, 0x1040u);
    EXPECT_EQ(labeled.fillPC, OutcomeLog::kLabeledPc);
    EXPECT_EQ(labeled.touchedMask, 0b10u);
    EXPECT_EQ(labeled.hits, 0u);
    EXPECT_TRUE(labeled.written);
    EXPECT_TRUE(labeled.predictedShared);

    const ResidencyOutcome &dead = outcomes[2];
    EXPECT_EQ(dead.addr, 0x1080u);
    EXPECT_EQ(dead.touchedMask, 0b1000u);
    EXPECT_EQ(dead.hits, 0u);
    EXPECT_FALSE(dead.written);
    EXPECT_FALSE(dead.shared());
}

TEST(StreamSim, ResidencyLifecycle)
{
    // Three blocks of set 0 through two ways: 0x000 is evicted by
    // 0x200's fill, so its residency ends first, in stream order; a
    // later refill of 0x000 starts a fresh residency.
    Trace trace("lifecycle", 2);
    trace.append(0x000, 0x400, 0, false);
    trace.append(0x000, 0x400, 1, false);
    trace.append(0x000, 0x400, 1, true);
    trace.append(0x100, 0x404, 0, false);
    trace.append(0x100, 0x404, 0, false);
    trace.append(0x200, 0x408, 1, false); // evicts 0x000
    trace.append(0x000, 0x40c, 0, false); // evicts 0x100
    SharingTracker tracker(2);
    const std::vector<ResidencyOutcome> outcomes =
        outcomesOf(trace, &tracker);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_EQ(outcomes[0].addr, 0x000u);
    EXPECT_EQ(outcomes[0].hits, 2u);
    EXPECT_EQ(outcomes[0].touchedMask, 0b11u);
    EXPECT_TRUE(outcomes[0].written);
    EXPECT_EQ(outcomes[1].addr, 0x100u);
    EXPECT_EQ(outcomes[1].hits, 1u);
    EXPECT_FALSE(outcomes[1].shared());
    // The end-of-run walk: set 0's ways ascending (0x200 took 0x000's
    // way 0, and the refill of 0x000 took 0x100's way 1).
    EXPECT_EQ(outcomes[2].addr, 0x200u);
    EXPECT_EQ(outcomes[3].addr, 0x000u);
    EXPECT_EQ(outcomes[3].fillPC, 0x40cu);
    EXPECT_EQ(outcomes[3].hits, 0u);
    EXPECT_FALSE(outcomes[3].written);

    // The tracker saw the same residencies and every miss.
    EXPECT_EQ(tracker.misses(), 4u);
    EXPECT_EQ(tracker.sharedResidencies(), 1u);
    EXPECT_EQ(tracker.privateResidencies(), 3u);
    EXPECT_EQ(tracker.sharedHits(), 2u);
    EXPECT_EQ(tracker.privateHits(), 1u);
    EXPECT_EQ(tracker.residenciesByClass(SharingClass::SharedReadWrite),
              1u);
    EXPECT_EQ(tracker.deadResidencies(), 2u);
}

TEST(StreamSim, EndOfRunReportsAllResidencies)
{
    // Three blocks in three sets, none evicted: only the end-of-run
    // walk ends them, set by set.
    Trace trace("flush", 1);
    trace.append(0x080, 0x400, 0, false); // set 2
    trace.append(0x000, 0x400, 0, false); // set 0
    trace.append(0x040, 0x400, 0, false); // set 1
    const std::vector<ResidencyOutcome> outcomes = outcomesOf(trace);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].addr, 0x000u);
    EXPECT_EQ(outcomes[1].addr, 0x040u);
    EXPECT_EQ(outcomes[2].addr, 0x080u);
}

} // namespace
} // namespace casim
