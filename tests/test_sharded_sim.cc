/**
 * @file
 * Tests for the set-sharded replay engine and the statistics merge it
 * builds on: per-kind mergeFrom semantics, group congruence, and the
 * headline guarantee that a sharded replay is byte-identical to the
 * serial reference for every per-set-state policy.
 */

#include <functional>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/opt.hh"
#include "sim/experiment.hh"
#include "sim/sharded_sim.hh"
#include "sim/stream_sim.hh"
#include "trace/next_use.hh"

namespace casim {
namespace {

// ---------------------------------------------------------------------
// Statistics merge.
// ---------------------------------------------------------------------

TEST(StatMerge, CounterAdds)
{
    stats::StatGroup a("g");
    stats::StatGroup b("g");
    stats::Counter &ca = a.addCounter("c", "d");
    stats::Counter &cb = b.addCounter("c", "d");
    ca += 7;
    cb += 35;
    a.mergeFrom(b);
    EXPECT_EQ(ca.value(), 42u);
    EXPECT_EQ(cb.value(), 35u); // the source is untouched
}

TEST(StatMerge, CounterVectorAddsElementwise)
{
    stats::StatGroup a("g");
    stats::StatGroup b("g");
    auto &va = a.addVector("v", "d", {"x", "y", "z"});
    auto &vb = b.addVector("v", "d", {"x", "y", "z"});
    va.add(0, 1);
    va.add(2, 2);
    vb.add(1, 10);
    vb.add(2, 20);
    a.mergeFrom(b);
    EXPECT_EQ(va.value(0), 1u);
    EXPECT_EQ(va.value(1), 10u);
    EXPECT_EQ(va.value(2), 22u);
    EXPECT_EQ(va.total(), 33u);
}

TEST(StatMerge, DistributionMergesMoments)
{
    stats::StatGroup a("g");
    stats::StatGroup b("g");
    auto &da = a.addDistribution("d", "d");
    auto &db = b.addDistribution("d", "d");
    for (const double x : {1.0, 3.0})
        da.sample(x);
    for (const double x : {5.0, 7.0, -2.0})
        db.sample(x);

    // The merged summary must equal one distribution fed all samples.
    stats::StatGroup ref("g");
    auto &dref = ref.addDistribution("d", "d");
    for (const double x : {1.0, 3.0, 5.0, 7.0, -2.0})
        dref.sample(x);

    a.mergeFrom(b);
    EXPECT_EQ(da.count(), dref.count());
    EXPECT_DOUBLE_EQ(da.mean(), dref.mean());
    EXPECT_DOUBLE_EQ(da.min(), dref.min());
    EXPECT_DOUBLE_EQ(da.max(), dref.max());
    EXPECT_DOUBLE_EQ(da.stddev(), dref.stddev());
}

TEST(StatMerge, DistributionEmptySidesAreIdentity)
{
    stats::StatGroup a("g");
    stats::StatGroup b("g");
    auto &da = a.addDistribution("d", "d");
    auto &db = b.addDistribution("d", "d");

    // empty <- empty stays empty.
    a.mergeFrom(b);
    EXPECT_EQ(da.count(), 0u);

    // non-empty <- empty is unchanged.
    da.sample(4.0);
    a.mergeFrom(b);
    EXPECT_EQ(da.count(), 1u);
    EXPECT_DOUBLE_EQ(da.min(), 4.0);

    // empty <- non-empty adopts the source verbatim (min/max included).
    db.sample(-3.0);
    stats::StatGroup c("g");
    auto &dc = c.addDistribution("d", "d");
    c.mergeFrom(b);
    EXPECT_EQ(dc.count(), 1u);
    EXPECT_DOUBLE_EQ(dc.min(), -3.0);
    EXPECT_DOUBLE_EQ(dc.max(), -3.0);
}

TEST(StatMerge, HistogramAddsBuckets)
{
    stats::StatGroup a("g");
    stats::StatGroup b("g");
    auto &ha = a.addHistogram("h", "d", {1.0, 10.0});
    auto &hb = b.addHistogram("h", "d", {1.0, 10.0});
    ha.sample(0.5);   // bucket 0
    ha.sample(100.0); // overflow
    hb.sample(5.0, 3); // bucket 1, weight 3
    hb.sample(0.0);    // bucket 0
    a.mergeFrom(b);
    EXPECT_EQ(ha.bucket(0), 2u);
    EXPECT_EQ(ha.bucket(1), 3u);
    EXPECT_EQ(ha.bucket(2), 1u);
    EXPECT_EQ(ha.total(), 6u);
}

TEST(StatMerge, FormulaReadsOwnStateAfterMerge)
{
    stats::StatGroup a("g");
    stats::StatGroup b("g");
    stats::Counter &ca = a.addCounter("c", "d");
    stats::Counter &cb = b.addCounter("c", "d");
    a.addFormula("f", "d", [&ca] { return ca.value() * 2.0; });
    b.addFormula("f", "d", [&cb] { return cb.value() * 2.0; });
    ca += 1;
    cb += 9;
    a.mergeFrom(b);
    // The formula is not summed; it derives from the merged counter.
    const auto *f = dynamic_cast<const stats::Formula *>(a.find("g.f"));
    ASSERT_NE(f, nullptr);
    EXPECT_DOUBLE_EQ(f->value(), 20.0);
}

TEST(StatMerge, MergedGroupJsonMatchesCombinedGroup)
{
    // The property sharded replay rests on: merging two congruent
    // groups renders exactly like one group that saw all the events.
    const auto build = [](std::uint64_t hits, std::uint64_t misses,
                          std::initializer_list<double> samples) {
        auto group = std::make_unique<stats::StatGroup>("llc");
        auto &h = group->addCounter("hits", "d");
        auto &m = group->addCounter("misses", "d");
        auto &lat = group->addDistribution("latency", "d");
        h += hits;
        m += misses;
        for (const double x : samples)
            lat.sample(x);
        return group;
    };

    auto a = build(10, 4, {1.0, 2.0});
    const auto b = build(32, 8, {0.5});
    const auto combined = build(42, 12, {1.0, 2.0, 0.5});
    a->mergeFrom(*b);

    std::ostringstream merged_json, combined_json;
    a->dumpJson(merged_json);
    combined->dumpJson(combined_json);
    EXPECT_EQ(merged_json.str(), combined_json.str());
}

// ---------------------------------------------------------------------
// Sharded replay.
// ---------------------------------------------------------------------

/** A shared-footprint random trace exercising every set. */
const Trace &
shardTrace()
{
    static const Trace trace = [] {
        Rng rng(1234);
        Trace t("shardtest", 8);
        t.reserve(40 * 1024);
        for (int i = 0; i < 40 * 1024; ++i) {
            // Mix a hot region (reuse) with a cold sweep (evictions).
            const Addr block = rng.chance(0.6)
                                   ? rng.below(2 * 1024)
                                   : rng.below(32 * 1024);
            t.append(block * kBlockBytes, 0x400 + rng.below(64) * 4,
                     static_cast<CoreId>(rng.below(8)),
                     rng.chance(0.3));
        }
        return t;
    }();
    return trace;
}

CacheGeometry
shardGeometry()
{
    return CacheGeometry{64 * 1024, 8, kBlockBytes}; // 128 sets
}

/** Serial reference replay: misses plus the full stat-group JSON. */
std::pair<std::uint64_t, std::string>
serialReference(const ReplPolicyFactory &factory)
{
    const CacheGeometry geo = shardGeometry();
    StreamSim sim(shardTrace(), geo, factory(geo.numSets(), geo.ways));
    sim.run();
    std::ostringstream json;
    sim.cache().stats().dumpJson(json);
    return {sim.misses(), json.str()};
}

/** References of `trace` whose low log2(shards) set bits equal s. */
std::size_t
refsOfShard(const Trace &trace, unsigned shards, unsigned s)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < trace.size(); ++i)
        count += ((trace[i].blockAddr() / kBlockBytes) % shards) == s;
    return count;
}

/**
 * Replay `trace` serially and K-way sharded on a runner under the
 * policy `factory_for` builds for it: the merged stat group must match
 * the serial one byte for byte, and each shard must have replayed
 * exactly the references carrying its shard bits.
 */
void
expectRoutedLikeSerial(
    const Trace &trace, unsigned shards,
    const std::function<ReplPolicyFactory(const Trace &)> &factory_for,
    const std::string &what)
{
    const CacheGeometry geo = shardGeometry();
    const ReplPolicyFactory factory = factory_for(trace);
    StreamSim serial(trace, geo, factory(geo.numSets(), geo.ways));
    serial.run();
    std::ostringstream serial_json;
    serial.cache().stats().dumpJson(serial_json);

    ParallelRunner runner(4);
    ShardedStreamSim sharded(trace, geo, shards, factory);
    sharded.run(&runner);
    std::ostringstream sharded_json;
    sharded.cache().stats().dumpJson(sharded_json);
    EXPECT_EQ(sharded_json.str(), serial_json.str()) << what;
    for (unsigned s = 0; s < shards; ++s)
        EXPECT_EQ(sharded.shardRefs(s), refsOfShard(trace, shards, s))
            << what << ", shard " << s;
}

/** The policy factories the routing edge cases replay under. */
std::vector<std::pair<std::string,
                      std::function<ReplPolicyFactory(const Trace &)>>>
routingFactories()
{
    // OPT keys every fill on the global stream position, so it is the
    // policy a mis-numbered routed reference would show up in first.
    return {{"lru",
             [](const Trace &) { return requirePolicyFactory("lru"); }},
            {"opt", [](const Trace &trace) -> ReplPolicyFactory {
                 auto index = std::make_shared<NextUseIndex>(trace);
                 return [index](unsigned sets, unsigned ways) {
                     return std::unique_ptr<ReplPolicy>(
                         new OptPolicy(sets, ways, *index));
                 };
             }}};
}

/** A random stream of `n` references over blocks chosen by `block`. */
Trace
routingTrace(std::size_t n, const std::function<Addr(Rng &)> &block)
{
    Rng rng(99);
    Trace t("routing", 4);
    for (std::size_t i = 0; i < n; ++i)
        t.append(block(rng) * kBlockBytes, 0x400,
                 static_cast<CoreId>(rng.below(4)), rng.chance(0.2));
    return t;
}

TEST(ShardedSim, SubstreamsPartitionTheStream)
{
    for (const unsigned shards : {2u, 8u}) {
        ShardedStreamSim sharded(shardTrace(), shardGeometry(), shards,
                                 requirePolicyFactory("lru"));
        sharded.run();
        std::size_t total = 0;
        for (unsigned s = 0; s < sharded.shards(); ++s) {
            EXPECT_EQ(sharded.shardRefs(s),
                      refsOfShard(shardTrace(), shards, s))
                << "shard " << s << " of " << shards;
            total += sharded.shardRefs(s);
        }
        EXPECT_EQ(total, shardTrace().size()) << shards << " shards";
    }
}

TEST(ShardedSim, RoutesStreamsOfAnyLength)
{
    // Lengths around and between the power-of-two chunk sizes a router
    // would use, so the last chunk is partial (or the only one).
    const auto any_block = [](Rng &rng) { return rng.below(4096); };
    for (const std::size_t n : {1ul, 3ul, 511ul, 513ul, 1000ul, 4097ul})
        for (const auto &[policy, factory_for] : routingFactories())
            expectRoutedLikeSerial(routingTrace(n, any_block), 4,
                                   factory_for,
                                   policy + " @ " + std::to_string(n));
}

TEST(ShardedSim, RoutesAroundAnEmptyShard)
{
    // Set bits 0b00 and 0b01 only: shards 2 and 3 replay nothing.
    const auto low_shards = [](Rng &rng) {
        return rng.below(2048) * 4 + rng.below(2);
    };
    const Trace trace = routingTrace(3000, low_shards);
    ASSERT_EQ(refsOfShard(trace, 4, 2) + refsOfShard(trace, 4, 3), 0u);
    for (const auto &[policy, factory_for] : routingFactories())
        expectRoutedLikeSerial(trace, 4, factory_for, policy);
}

TEST(ShardedSim, RoutesAStreamThatLivesInOneShard)
{
    const auto shard3 = [](Rng &rng) { return rng.below(1024) * 4 + 3; };
    const Trace trace = routingTrace(3000, shard3);
    ASSERT_EQ(refsOfShard(trace, 4, 3), trace.size());
    for (const auto &[policy, factory_for] : routingFactories())
        expectRoutedLikeSerial(trace, 4, factory_for, policy);
}

TEST(ShardedSim, PerSetPoliciesMatchSerialByteForByte)
{
    for (const char *policy : {"lru", "nru", "srrip"}) {
        const ReplPolicyFactory factory = requirePolicyFactory(policy);
        const auto [serial_misses, serial_json] =
            serialReference(factory);
        for (const unsigned shards : {1u, 2u, 4u, 8u}) {
            ShardedStreamSim sharded(shardTrace(), shardGeometry(),
                                     shards, factory);
            sharded.run();
            EXPECT_EQ(sharded.misses(), serial_misses)
                << policy << " @ " << shards << " shards";
            std::ostringstream json;
            sharded.cache().stats().dumpJson(json);
            EXPECT_EQ(json.str(), serial_json)
                << policy << " @ " << shards << " shards";
        }
    }
}

TEST(ShardedSim, OptMatchesSerialByteForByte)
{
    const NextUseIndex index(shardTrace());
    const ReplPolicyFactory factory = [&index](unsigned sets,
                                               unsigned ways) {
        return std::unique_ptr<ReplPolicy>(
            new OptPolicy(sets, ways, index));
    };
    const auto [serial_misses, serial_json] = serialReference(factory);
    for (const unsigned shards : {2u, 8u}) {
        ShardedStreamSim sharded(shardTrace(), shardGeometry(), shards,
                                 factory);
        sharded.run();
        EXPECT_EQ(sharded.misses(), serial_misses)
            << "opt @ " << shards << " shards";
        std::ostringstream json;
        sharded.cache().stats().dumpJson(json);
        EXPECT_EQ(json.str(), serial_json)
            << "opt @ " << shards << " shards";
    }
}

TEST(ShardedSim, RunnerFanOutMatchesSerial)
{
    const ReplPolicyFactory factory = requirePolicyFactory("lru");
    const auto [serial_misses, serial_json] = serialReference(factory);
    ParallelRunner runner(4);
    ShardedStreamSim sharded(shardTrace(), shardGeometry(), 8, factory);
    sharded.run(&runner);
    EXPECT_EQ(sharded.misses(), serial_misses);
    std::ostringstream json;
    sharded.cache().stats().dumpJson(json);
    EXPECT_EQ(json.str(), serial_json);
}

TEST(ShardedSim, HitsAndRatioAggregateAcrossShards)
{
    const ReplPolicyFactory factory = requirePolicyFactory("lru");
    const CacheGeometry geo = shardGeometry();
    StreamSim serial(shardTrace(), geo, factory(geo.numSets(), geo.ways));
    serial.run();

    ShardedStreamSim sharded(shardTrace(), geo, 4, factory);
    sharded.run();
    EXPECT_EQ(sharded.hits(), serial.hits());
    EXPECT_DOUBLE_EQ(sharded.missRatio(), serial.missRatio());
}

/** Current value of one sharded_replay counter. */
std::uint64_t
shardCounter(const std::string &name)
{
    return stats::counterValue(
               shardedReplayStats().find("sharded_replay." + name))
        .value_or(0);
}

TEST(ShardedSim, ReplaySpecDispatchMatchesSerial)
{
    // replayMisses routes a shardable spec on a fanning-out runner
    // through the sharded engine; the caller-visible result must not
    // change.
    ReplaySpec serial_spec;
    serial_spec.policy = "srrip";
    serial_spec.geo = shardGeometry();
    const std::uint64_t serial_misses =
        replayMisses(shardTrace(), serial_spec);

    ParallelRunner runner(4);
    const std::uint64_t replays = shardCounter("replays");
    ReplaySpec sharded_spec = serial_spec;
    sharded_spec.shards = 8;
    sharded_spec.shardRunner = &runner;
    EXPECT_EQ(replayMisses(shardTrace(), sharded_spec), serial_misses);

    // A request beyond the set count clamps instead of failing.
    sharded_spec.shards = 1u << 20;
    EXPECT_EQ(replayMisses(shardTrace(), sharded_spec), serial_misses);
    EXPECT_EQ(shardCounter("replays"), replays + 2);
}

TEST(ShardedSim, InlineShardsReplayUnsharded)
{
    // Shards that would run one after another only cost a stream walk
    // each, so a replay without a fanning-out runner stays unsharded:
    // from inside a runner task, on a one-job runner, with no runner.
    ReplaySpec serial_spec;
    serial_spec.policy = "lru";
    serial_spec.geo = shardGeometry();
    const std::uint64_t serial_misses =
        replayMisses(shardTrace(), serial_spec);

    ParallelRunner runner(4);
    ParallelRunner single(1);
    ReplaySpec spec = serial_spec;
    spec.shards = 4;
    const std::uint64_t replays = shardCounter("replays");
    const std::uint64_t inline_serial = shardCounter("inline_serial");
    std::uint64_t nested_misses = 0;
    spec.shardRunner = &runner;
    runner.run(2, [&](std::size_t i) {
        if (i == 0)
            nested_misses = replayMisses(shardTrace(), spec);
    });
    EXPECT_EQ(nested_misses, serial_misses);
    EXPECT_EQ(shardCounter("replays"), replays);
    EXPECT_EQ(shardCounter("inline_serial"), inline_serial + 1);

    spec.shardRunner = &single;
    EXPECT_EQ(replayMisses(shardTrace(), spec), serial_misses);
    spec.shardRunner = nullptr;
    EXPECT_EQ(replayMisses(shardTrace(), spec), serial_misses);
    EXPECT_EQ(shardCounter("replays"), replays);
    EXPECT_EQ(shardCounter("inline_serial"), inline_serial + 3);
}

TEST(ShardedSim, GlobalStatePolicyFallsBackToSerial)
{
    const std::uint64_t before = shardCounter("serial_fallbacks");

    // SHiP's SHCT is global state: sharding must silently stand down
    // and reproduce the serial result exactly.
    ReplaySpec serial_spec;
    serial_spec.policy = "ship";
    serial_spec.geo = shardGeometry();
    const std::uint64_t serial_misses =
        replayMisses(shardTrace(), serial_spec);

    ParallelRunner runner(4);
    const std::uint64_t inline_serial = shardCounter("inline_serial");
    ReplaySpec sharded_spec = serial_spec;
    sharded_spec.shards = 8;
    sharded_spec.shardRunner = &runner;
    EXPECT_EQ(replayMisses(shardTrace(), sharded_spec), serial_misses);
    EXPECT_EQ(shardCounter("serial_fallbacks"), before + 1);
    EXPECT_EQ(shardCounter("inline_serial"), inline_serial);
}

TEST(ShardedSim, PolicyShardabilityFlags)
{
    for (const char *name : {"lru", "nru", "srrip", "opt"})
        EXPECT_TRUE(policyDesc(name)->perSetState) << name;
    for (const char *name :
         {"brrip", "drrip", "dip", "ship", "tadip", "tadrrip"})
        EXPECT_FALSE(policyDesc(name)->perSetState) << name;
}

} // namespace
} // namespace casim
