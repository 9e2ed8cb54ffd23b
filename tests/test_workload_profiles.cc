/**
 * @file
 * Sharing-profile lock tests: each application model must keep the
 * qualitative sharing structure its real counterpart is known for.
 * These run the full hierarchy at a reduced scale and assert on the
 * residency-attributed metrics, so a generator change that silently
 * destroys an app's character fails loudly.
 */

#include <gtest/gtest.h>

#include "core/sharing_tracker.hh"
#include "mem/hierarchy.hh"
#include "mem/repl/factory.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

struct Profile
{
    double sharedHitFraction = 0.0;
    double upgradesPerKilo = 0.0;
    double interventionsPerKilo = 0.0;
    std::uint64_t llcMisses = 0;
};

Profile
profileOf(const std::string &name, double scale = 0.1)
{
    WorkloadParams params;
    params.threads = 8;
    params.scale = scale;
    params.seed = 42;
    const Trace trace = makeWorkloadTrace(name, params);

    HierarchyConfig config;
    config.numCores = 8;
    // Scaled-down hierarchy so the scaled-down footprints still
    // exceed the LLC the way the full setup's do.
    config.l1 = CacheGeometry{8 * 1024, 8, kBlockBytes};
    config.llc = CacheGeometry{512 * 1024, 16, kBlockBytes};
    Hierarchy hierarchy(config, requirePolicyFactory("lru"));
    hierarchy.run(trace);
    hierarchy.finish();

    const auto counter = [&](const char *stat) {
        const auto *s = hierarchy.stats().find(
            std::string("hierarchy.") + stat);
        const auto *c = dynamic_cast<const stats::Counter *>(s);
        return c == nullptr ? std::uint64_t{0} : c->value();
    };
    Profile profile;
    profile.sharedHitFraction = hierarchy.sharing().sharedHitFraction();
    const double per_kilo = 1000.0 / static_cast<double>(trace.size());
    profile.upgradesPerKilo = counter("upgrades") * per_kilo;
    profile.interventionsPerKilo =
        counter("interventions") * per_kilo;
    profile.llcMisses = hierarchy.llc().demandMisses();
    return profile;
}

TEST(WorkloadProfile, SwaptionsIsPrivate)
{
    const Profile p = profileOf("swaptions");
    EXPECT_LT(p.sharedHitFraction, 0.15);
}

TEST(WorkloadProfile, BlackscholesIsMostlyPrivate)
{
    const Profile p = profileOf("blackscholes");
    EXPECT_LT(p.sharedHitFraction, 0.3);
}

TEST(WorkloadProfile, CannealIsHeavilyShared)
{
    const Profile p = profileOf("canneal");
    EXPECT_GT(p.sharedHitFraction, 0.7);
    // Read-write sharing of the netlist produces coherence traffic.
    EXPECT_GT(p.upgradesPerKilo + p.interventionsPerKilo, 1.0);
}

TEST(WorkloadProfile, ArtSharesItsWeights)
{
    const Profile p = profileOf("art_omp");
    EXPECT_GT(p.sharedHitFraction, 0.5);
}

TEST(WorkloadProfile, WaterIsMigratory)
{
    // Migratory read-modify-write: interventions (M/E downgrades) and
    // upgrades both present in volume.
    const Profile p = profileOf("water");
    EXPECT_GT(p.interventionsPerKilo, 1.0);
    EXPECT_GT(p.upgradesPerKilo, 0.2);
    EXPECT_GT(p.sharedHitFraction, 0.5);
}

TEST(WorkloadProfile, X264SharesReferenceFrames)
{
    const Profile p = profileOf("x264");
    // Each frame is written by its encoder and read by its neighbour.
    // (With a tiny L1 the writer's copies are long evicted by read
    // time, so the sharing shows in the LLC residency, not in
    // interventions.)
    EXPECT_GT(p.sharedHitFraction, 0.4);
}

TEST(WorkloadProfile, CholeskyFanOutIsReadShared)
{
    const Profile p = profileOf("cholesky");
    EXPECT_GT(p.sharedHitFraction, 0.7);
}

TEST(WorkloadProfile, SharingOrderingAcrossApps)
{
    // The canonical ordering: heavily-shared apps sit far above the
    // private Monte-Carlo codes.
    const double canneal = profileOf("canneal").sharedHitFraction;
    const double swaptions = profileOf("swaptions").sharedHitFraction;
    const double blackscholes =
        profileOf("blackscholes").sharedHitFraction;
    EXPECT_GT(canneal, swaptions + 0.4);
    EXPECT_GT(canneal, blackscholes + 0.4);
}

TEST(WorkloadProfile, EveryAppMissesInTheLlc)
{
    // Footprints are chosen to exceed the LLC: every model must show
    // real capacity pressure, or the replacement study is vacuous.
    for (const auto &info : allWorkloads()) {
        const Profile p = profileOf(info.name, 0.05);
        EXPECT_GT(p.llcMisses, 100u) << info.name;
    }
}

} // namespace
} // namespace casim
