/**
 * @file
 * Dispatch equivalence of the replay loop.  StreamSim resolves its
 * policy's concrete type once (visitPolicy) and runs a loop in which
 * the cache's and the policy's per-access hooks are direct calls.  A
 * cell replayed that way must count exactly what the same cell counts
 * when every hook is a virtual call, which a non-final forwarding
 * adapter forces.  Cells: every factory policy, OPT, sa+lru and
 * sa+srrip labeled by the oracle, and sa+lru labeled by the PC
 * predictor (which trains, so it replays with the block payload),
 * unsharded and in 4 set shards, on random streams and on one captured
 * LLC stream.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/oracle.hh"
#include "core/policy_visit.hh"
#include "core/predictor.hh"
#include "core/sharing_aware.hh"
#include "mem/repl/factory.hh"
#include "sim/config.hh"
#include "sim/hierarchy_sim.hh"
#include "sim/stream_sim.hh"
#include "trace/next_use.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

/**
 * Forwards every hook to an owned policy.  It is not final and not in
 * visitPolicy's list, so a replay through it takes the visitor's
 * fallback and dispatches each hook virtually.
 */
class ForwardingPolicy : public ReplPolicy
{
  public:
    explicit ForwardingPolicy(std::unique_ptr<ReplPolicy> inner)
        : ReplPolicy(inner->numSets(), inner->numWays()),
          inner_(std::move(inner))
    {
    }

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        return inner_->victim(set, ctx, exclude);
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        inner_->onFill(set, way, ctx);
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        inner_->onHit(set, way, ctx);
    }

    void
    onEvict(unsigned set, unsigned way) override
    {
        inner_->onEvict(set, way);
    }

    void
    onInvalidate(unsigned set, unsigned way) override
    {
        inner_->onInvalidate(set, way);
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<ReplPolicy> inner_;
};

/** One replay cell: a policy and the labeler its fills consult. */
struct Cell
{
    std::string name;

    /** Builds the policy; OPT's needs the stream's next-use index. */
    std::function<std::unique_ptr<ReplPolicy>(
        unsigned sets, unsigned ways, const NextUseIndex &index)>
        make;

    /** "", "oracle" or "pc-pred". */
    std::string labeler;
};

std::vector<Cell>
replayCells()
{
    std::vector<Cell> cells;
    for (const std::string &name : builtinPolicyNames()) {
        const ReplPolicyFactory factory = requirePolicyFactory(name);
        cells.push_back({name,
                         [factory](unsigned sets, unsigned ways,
                                   const NextUseIndex &) {
                             return factory(sets, ways);
                         },
                         ""});
    }
    cells.push_back({"opt",
                     [](unsigned sets, unsigned ways,
                        const NextUseIndex &index) {
                         return requirePolicyFactory("opt", &index)(sets,
                                                                    ways);
                     },
                     ""});
    const auto wrapped = [](const std::string &base) {
        const ReplPolicyFactory factory = requirePolicyFactory(base);
        return [factory](unsigned sets, unsigned ways,
                         const NextUseIndex &) {
            return std::unique_ptr<ReplPolicy>(
                new SharingAwareWrapper(factory(sets, ways)));
        };
    };
    cells.push_back({"sa+lru/oracle", wrapped("lru"), "oracle"});
    cells.push_back({"sa+srrip/oracle", wrapped("srrip"), "oracle"});
    cells.push_back({"sa+lru/pc-pred", wrapped("lru"), "pc-pred"});
    return cells;
}

/** The llc counters a replay produces. */
const char *const kLlcCounters[] = {
    "demand_hits", "demand_misses",     "fills",      "evictions",
    "dirty_evictions", "ext_invalidations", "write_hits", "write_misses",
};

/**
 * Replay `cell` over `trace` in `shards` set shards of `geo` (1 =
 * unsharded), each through its own StreamSim, and return every count
 * by name: per shard, the llc counters, the references stepped, and
 * for a wrapper its filter counters and final PSEL.
 */
std::map<std::string, std::uint64_t>
replayCounts(const Trace &trace, const NextUseIndex &index,
             const CacheGeometry &geo, const Cell &cell, unsigned shards,
             bool forwarded)
{
    CacheGeometry local = geo;
    local.sizeBytes /= shards;
    const SeqNo window = 4 * (geo.sizeBytes / kBlockBytes);
    std::map<std::string, std::uint64_t> counts;
    for (unsigned s = 0; s < shards; ++s) {
        std::unique_ptr<ReplPolicy> policy =
            cell.make(local.numSets(), local.ways, index);
        const auto *wrapper =
            dynamic_cast<const SharingAwareWrapper *>(policy.get());
        if (forwarded)
            policy = std::make_unique<ForwardingPolicy>(std::move(policy));
        StreamSim sim(trace, local, std::move(policy),
                      CacheShard{floorLog2(shards), s});
        std::unique_ptr<FillLabeler> labeler;
        if (cell.labeler == "oracle")
            labeler = std::make_unique<OracleLabeler>(index, window);
        else if (cell.labeler == "pc-pred")
            labeler = std::make_unique<PcSharingPredictor>(
                PredictorConfig{});
        sim.setLabeler(labeler.get());
        sim.run();

        const std::string shard = "shard" + std::to_string(s) + ".";
        for (const char *name : kLlcCounters) {
            const auto value = stats::counterValue(
                sim.cache().stats().find(std::string("llc.") + name));
            EXPECT_TRUE(value.has_value()) << name;
            counts[shard + name] = value.value_or(0);
        }
        counts[shard + "replayed"] = sim.replayed();
        if (wrapper != nullptr) {
            counts[shard + "filtered_victims"] =
                wrapper->filteredVictims();
            counts[shard + "demoted_victims"] = wrapper->demotedVictims();
            counts[shard + "saturated_sets"] = wrapper->saturatedSets();
            counts[shard + "psel"] = wrapper->psel();
        }
    }
    return counts;
}

/** Sum of one per-shard count over all shards. */
std::uint64_t
total(const std::map<std::string, std::uint64_t> &counts,
      const std::string &name)
{
    const std::string suffix = "." + name;
    std::uint64_t sum = 0;
    for (const auto &[key, value] : counts) {
        if (key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0)
            sum += value;
    }
    return sum;
}

/** Check every cell typed against forwarded on one stream. */
void
expectDispatchEquivalence(const Trace &trace, const CacheGeometry &geo,
                          const std::string &stream)
{
    const NextUseIndex index(trace);
    for (const Cell &cell : replayCells()) {
        for (const unsigned shards : {1u, 4u}) {
            const std::string what = stream + " " + cell.name + " @ " +
                                     std::to_string(shards) + " shards";
            const auto typed =
                replayCounts(trace, index, geo, cell, shards, false);
            const auto forwarded =
                replayCounts(trace, index, geo, cell, shards, true);
            EXPECT_EQ(typed, forwarded) << what;
            // The replacement path must actually have run.
            EXPECT_EQ(total(typed, "replayed"), trace.size()) << what;
            EXPECT_GT(total(typed, "evictions"), 0u) << what;
            EXPECT_GT(total(typed, "demand_hits"), 0u) << what;
        }
    }
}

/** Four cores, 30% stores, a footprint about twice the capacity. */
Trace
randomStream(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace("random", 4);
    for (int i = 0; i < 12000; ++i)
        trace.append(rng.below(2048) * kBlockBytes,
                     0x400 + rng.below(32) * 4,
                     static_cast<CoreId>(rng.below(4)), rng.chance(0.3));
    return trace;
}

TEST(PolicyDispatch, VisitorResolvesTheStaticallyDispatchedPolicies)
{
    const CacheGeometry geo{64 * 1024, 8, kBlockBytes};
    const Trace trace = randomStream(1);
    const NextUseIndex index(trace);
    // Every registered policy replays typed, and so do the study's
    // sharing-aware cells.
    std::vector<std::string> typed_names = builtinPolicyNames();
    for (const char *name :
         {"opt", "sa+lru/oracle", "sa+srrip/oracle", "sa+lru/pc-pred"})
        typed_names.push_back(name);
    for (const Cell &cell : replayCells()) {
        auto policy = cell.make(geo.numSets(), geo.ways, index);
        const bool typed = visitPolicy(*policy, [](auto &p) {
            return !std::is_same_v<std::remove_cvref_t<decltype(p)>,
                                   ReplPolicy>;
        });
        const bool expected =
            std::find(typed_names.begin(), typed_names.end(),
                      cell.name) != typed_names.end();
        EXPECT_EQ(typed, expected) << cell.name;

        ForwardingPolicy forwarded(std::move(policy));
        EXPECT_TRUE(visitPolicy(forwarded, [](auto &p) {
            return std::is_same_v<std::remove_cvref_t<decltype(p)>,
                                  ReplPolicy>;
        })) << cell.name;
    }
}

TEST(PolicyDispatch, TypedLoopMatchesVirtualDispatchOnRandomStreams)
{
    const CacheGeometry geo{64 * 1024, 8, kBlockBytes}; // 128 sets
    for (const std::uint64_t seed : {1307u, 2024u})
        expectDispatchEquivalence(randomStream(seed), geo,
                                  "random seed " + std::to_string(seed));
}

TEST(PolicyDispatch, TypedLoopMatchesVirtualDispatchOnACapture)
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.02;
    config.workload.seed = 11;
    config.hierarchy.numCores = 4;
    config.hierarchy.l1 = CacheGeometry{4 * 1024, 4, kBlockBytes};
    HierarchyConfig hier = config.hierarchy;
    hier.llc = CacheGeometry{64 * 1024, 8, kBlockBytes};
    const Trace workload = makeWorkloadTrace("canneal", config.workload);
    Trace captured("canneal", config.workload.threads);
    runHierarchy(workload, hier, requirePolicyFactory("lru"), &captured);
    ASSERT_GT(captured.size(), 0u);
    // Replayed at half the capturing LLC, so every cell evicts.
    expectDispatchEquivalence(captured,
                              CacheGeometry{32 * 1024, 8, kBlockBytes},
                              "canneal capture");
}

} // namespace
} // namespace casim
