/**
 * @file
 * Parameterized property sweeps (TEST_P): invariants that must hold
 * for every replacement policy, every workload model, and a range of
 * cache geometries.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/sharing_aware.hh"
#include "core/sharing_tracker.hh"
#include "mem/hierarchy.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/opt.hh"
#include "sim/stream_sim.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

// ---------------------------------------------------------------
// Per-policy invariants.
// ---------------------------------------------------------------

class PolicyInvariants : public ::testing::TestWithParam<std::string>
{
};

/** A policy must never return an excluded or out-of-range victim. */
TEST_P(PolicyInvariants, VictimRespectsExclusion)
{
    const auto factory = requirePolicyFactory(GetParam());
    auto policy = factory(4, 8);
    Rng rng(2024);
    for (unsigned set = 0; set < 4; ++set)
        for (unsigned way = 0; way < 8; ++way)
            policy->onFill(set, way,
                           ReplContext{way * kBlockBytes, 0x400, 0,
                                       false, 0, false});
    for (int i = 0; i < 2000; ++i) {
        const unsigned set = static_cast<unsigned>(rng.below(4));
        const std::uint64_t exclude = rng.below(255); // never all 8
        const ReplContext ctx{rng.below(256) * kBlockBytes,
                              0x400 + rng.below(8), 0, false,
                              static_cast<SeqNo>(i), false};
        const unsigned way = policy->victim(set, ctx, exclude);
        ASSERT_LT(way, 8u);
        ASSERT_EQ(exclude & (1ULL << way), 0u);
    }
}

/** Replaying the same stream twice must give identical miss counts. */
TEST_P(PolicyInvariants, DeterministicReplay)
{
    Rng rng(7);
    Trace trace("t", 4);
    for (int i = 0; i < 20000; ++i)
        trace.append(rng.below(512) * kBlockBytes, 0x400 + rng.below(16),
                     static_cast<CoreId>(rng.below(4)),
                     rng.chance(0.25));
    const CacheGeometry geo{16 * 1024, 8, kBlockBytes};

    const auto run = [&]() {
        StreamSim sim(trace, geo,
                      requirePolicyFactory(GetParam())(geo.numSets(),
                                                    geo.ways));
        sim.run();
        return sim.misses();
    };
    EXPECT_EQ(run(), run());
}

/** Hits plus misses must equal stream length; misses cover cold set. */
TEST_P(PolicyInvariants, AccountingAddsUp)
{
    Rng rng(13);
    Trace trace("t", 2);
    for (int i = 0; i < 10000; ++i)
        trace.append(rng.below(256) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(2)),
                     rng.chance(0.5));
    const CacheGeometry geo{8 * 1024, 4, kBlockBytes};
    StreamSim sim(trace, geo,
                  requirePolicyFactory(GetParam())(geo.numSets(),
                                                geo.ways));
    sim.run();
    EXPECT_EQ(sim.hits() + sim.misses(), trace.size());
    // At least one cold miss per distinct block.
    EXPECT_GE(sim.misses(), trace.footprintBlocks());
}

/**
 * Wrapping any policy with the sharing-aware filter fed by a
 * never-shared labeler must behave exactly like the plain policy
 * (with demotion disabled; demotion deliberately reorders victims).
 */
TEST_P(PolicyInvariants, NeverLabelerIsTransparent)
{
    Rng rng(17);
    Trace trace("t", 4);
    for (int i = 0; i < 20000; ++i)
        trace.append(rng.below(400) * kBlockBytes, 0x400 + rng.below(4),
                     static_cast<CoreId>(rng.below(4)),
                     rng.chance(0.3));
    const CacheGeometry geo{16 * 1024, 8, kBlockBytes};

    StreamSim plain(trace, geo,
                    requirePolicyFactory(GetParam())(geo.numSets(),
                                                  geo.ways));
    plain.run();

    NeverSharedLabeler never;
    auto wrapped = std::make_unique<SharingAwareWrapper>(
        requirePolicyFactory(GetParam())(geo.numSets(), geo.ways), 256, 0,
        0.5, true, /*demote_private=*/false);
    StreamSim aware(trace, geo, std::move(wrapped));
    aware.setLabeler(&never);
    aware.run();

    EXPECT_EQ(plain.misses(), aware.misses());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariants,
    ::testing::Values("lru", "nru", "srrip", "brrip", "drrip", "dip",
                      "ship", "tadip", "tadrrip"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/**
 * The full coherent hierarchy must hold its invariants with any LLC
 * replacement policy, not just LRU (back-invalidations exercise the
 * onInvalidate path of every policy).
 */
TEST_P(PolicyInvariants, HierarchyRunsWithPolicyAsLlc)
{
    HierarchyConfig config;
    config.numCores = 4;
    config.l1 = CacheGeometry{2 * 1024, 2, kBlockBytes};
    config.llc = CacheGeometry{16 * 1024, 4, kBlockBytes};
    Hierarchy hierarchy(config, requirePolicyFactory(GetParam()));
    Rng rng(321);
    for (int i = 0; i < 30000; ++i) {
        hierarchy.access(makeAccess(rng.below(1024) * kBlockBytes,
                                    0x400 + rng.below(8),
                                    static_cast<CoreId>(rng.below(4)),
                                    rng.chance(0.3)));
    }
    hierarchy.finish();
    EXPECT_EQ(hierarchy.accesses(), 30000u);
    EXPECT_EQ(hierarchy.llc().validBlocks(), 0u);
}

/**
 * Wrapping each policy with the sharing-aware filter and an oracle on
 * a random stream must never crash and must stay within a factor of
 * the plain policy (the dueling guard bounds the damage).
 */
TEST_P(PolicyInvariants, OracleWrapperBoundedOnRandomStream)
{
    Rng rng(654);
    Trace trace("t", 4);
    for (int i = 0; i < 30000; ++i)
        trace.append(rng.below(700) * kBlockBytes, 0x400 + rng.below(8),
                     static_cast<CoreId>(rng.below(4)),
                     rng.chance(0.3));
    const NextUseIndex index(trace);
    const CacheGeometry geo{16 * 1024, 8, kBlockBytes};

    StreamSim plain(trace, geo,
                    requirePolicyFactory(GetParam())(geo.numSets(),
                                                  geo.ways));
    plain.run();

    OracleLabeler oracle(index, 4 * (geo.sizeBytes / kBlockBytes));
    auto wrapped = std::make_unique<SharingAwareWrapper>(
        requirePolicyFactory(GetParam())(geo.numSets(), geo.ways));
    StreamSim aware(trace, geo, std::move(wrapped));
    aware.setLabeler(&oracle);
    aware.run();

    EXPECT_LT(static_cast<double>(aware.misses()),
              1.25 * static_cast<double>(plain.misses()));
}

// ---------------------------------------------------------------
// Per-workload structural properties.
// ---------------------------------------------------------------

class WorkloadProperties : public ::testing::TestWithParam<std::string>
{
  protected:
    WorkloadParams
    params() const
    {
        WorkloadParams p;
        p.threads = 4;
        p.scale = 0.02;
        p.seed = 3;
        return p;
    }
};

/** Generators emit block-aligned addresses and valid core ids. */
TEST_P(WorkloadProperties, WellFormedAccesses)
{
    const Trace trace = makeWorkloadTrace(GetParam(), params());
    ASSERT_GT(trace.size(), 0u);
    for (std::size_t i = 0; i < trace.size(); i += 13) {
        ASSERT_EQ(trace[i].blockAddr() % kBlockBytes, 0u);
        ASSERT_LT(trace[i].core, 4);
        ASSERT_NE(trace[i].pc, 0u);
    }
}

/** Every model produces cross-thread shared blocks and writes. */
TEST_P(WorkloadProperties, ExhibitsSharingAndWrites)
{
    const Trace trace = makeWorkloadTrace(GetParam(), params());
    EXPECT_GT(trace.sharedFootprintBlocks(), 0u);
    EXPECT_GT(trace.writeFraction(), 0.0);
    EXPECT_LT(trace.writeFraction(), 1.0);
}

/** Thread work is not pathologically imbalanced (no thread > 70%). */
TEST_P(WorkloadProperties, ThreadBalance)
{
    const Trace trace = makeWorkloadTrace(GetParam(), params());
    std::vector<std::size_t> per_core(4, 0);
    for (const auto &access : trace)
        ++per_core[access.core];
    for (const auto count : per_core) {
        EXPECT_GT(count, 0u);
        EXPECT_LT(static_cast<double>(count) /
                      static_cast<double>(trace.size()),
                  0.7);
    }
}

/** The full hierarchy digests every model without invariant failures. */
TEST_P(WorkloadProperties, HierarchyDigestsTrace)
{
    const Trace trace = makeWorkloadTrace(GetParam(), params());
    HierarchyConfig config;
    config.numCores = 4;
    config.l1 = CacheGeometry{2 * 1024, 2, kBlockBytes};
    config.llc = CacheGeometry{32 * 1024, 4, kBlockBytes};
    Hierarchy hierarchy(config, requirePolicyFactory("lru"));
    hierarchy.run(trace);
    hierarchy.finish();
    EXPECT_EQ(hierarchy.accesses(), trace.size());
    EXPECT_EQ(hierarchy.sharing().totalHits(),
              hierarchy.llc().demandHits());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadProperties,
    ::testing::Values("blackscholes", "bodytrack", "canneal", "dedup",
                      "ferret", "fluidanimate", "streamcluster",
                      "swaptions", "x264", "facesim", "vips", "barnes",
                      "fft", "lu", "ocean", "radix", "water",
                      "cholesky", "raytrace", "volrend", "swim_omp",
                      "art_omp", "equake_omp", "mgrid_omp",
                      "applu_omp", "ammp_omp"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------
// Cache geometry sweep.
// ---------------------------------------------------------------

struct GeometryCase
{
    std::uint64_t size;
    unsigned ways;
};

class GeometrySweep : public ::testing::TestWithParam<GeometryCase>
{
};

/** Valid-block occupancy is bounded by capacity at every geometry. */
TEST_P(GeometrySweep, OccupancyBounded)
{
    const GeometryCase param = GetParam();
    const CacheGeometry geo{param.size, param.ways, kBlockBytes};
    geo.check();
    Rng rng(23);
    Trace trace("t", 2);
    for (int i = 0; i < 30000; ++i)
        trace.append(rng.below(4096) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(2)),
                     rng.chance(0.3));
    StreamSim sim(trace, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();
    EXPECT_LE(sim.cache().validBlocks(), geo.numSets() * geo.ways);
    EXPECT_EQ(sim.hits() + sim.misses(), trace.size());
}

/** OPT never loses to LRU at any geometry. */
TEST_P(GeometrySweep, OptDominatesLru)
{
    const GeometryCase param = GetParam();
    const CacheGeometry geo{param.size, param.ways, kBlockBytes};
    Rng rng(29);
    Trace trace("t", 2);
    for (int i = 0; i < 30000; ++i)
        trace.append(rng.below(2048) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(2)), false);
    const NextUseIndex index(trace);
    StreamSim lru(trace, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    lru.run();
    StreamSim opt(trace, geo,
                  std::make_unique<OptPolicy>(geo.numSets(), geo.ways,
                                              index));
    opt.run();
    EXPECT_LE(opt.misses(), lru.misses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(GeometryCase{8 * 1024, 2},
                      GeometryCase{16 * 1024, 4},
                      GeometryCase{32 * 1024, 8},
                      GeometryCase{64 * 1024, 16},
                      GeometryCase{128 * 1024, 16},
                      GeometryCase{64 * 1024, 1}),
    [](const ::testing::TestParamInfo<GeometryCase> &info) {
        return std::to_string(info.param.size / 1024) + "k_" +
               std::to_string(info.param.ways) + "w";
    });

} // namespace
} // namespace casim
