/**
 * @file
 * Unit tests for the replacement-policy family: LRU and its insertion
 * variants (DIP), NRU, the RRIP family, SHiP, the set duels, and OPT.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "mem/block.hh"
#include "mem/repl/dip.hh"
#include "mem/repl/duel.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/nru.hh"
#include "mem/repl/opt.hh"
#include "mem/repl/rrip.hh"
#include "mem/repl/ship.hh"
#include "mem/repl/thread_aware.hh"

namespace casim {
namespace {

ReplContext
ctx(Addr block = 0, PC pc = 0x400, SeqNo seq = 0)
{
    return ReplContext{block, pc, 0, false, seq, false};
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        lru.onFill(0, way, ctx());
    lru.onHit(0, 0, ctx());
    lru.onHit(0, 2, ctx());
    // Way 1 is now the stalest.
    EXPECT_EQ(lru.victim(0, ctx(), 0), 1u);
}

TEST(Lru, RespectsExclusion)
{
    LruPolicy lru(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        lru.onFill(0, way, ctx());
    // Way 0 is LRU but excluded; way 1 is next.
    EXPECT_EQ(lru.victim(0, ctx(), 0b0001), 1u);
    EXPECT_EQ(lru.victim(0, ctx(), 0b0011), 2u);
}

TEST(Lru, StackDepth)
{
    LruPolicy lru(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        lru.onFill(0, way, ctx());
    EXPECT_EQ(lru.stackDepth(0, 3), 0u); // most recent
    EXPECT_EQ(lru.stackDepth(0, 0), 3u); // least recent
}

TEST(Lru, InvalidatedWayBecomesVictim)
{
    LruPolicy lru(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        lru.onFill(0, way, ctx());
    lru.onHit(0, 0, ctx());
    lru.onInvalidate(0, 3);
    EXPECT_EQ(lru.victim(0, ctx(), 0), 3u);
}

TEST(Nru, PrefersNotRecentlyUsed)
{
    NruPolicy nru(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        nru.onFill(0, way, ctx());
    // All reference bits set: the whole set ages, way 0 wins.
    EXPECT_EQ(nru.victim(0, ctx(), 0), 0u);
    // After aging, a hit on way 0 re-marks it.
    nru.onHit(0, 0, ctx());
    EXPECT_EQ(nru.victim(0, ctx(), 0), 1u);
}

TEST(Nru, ExclusionDuringAging)
{
    NruPolicy nru(1, 2);
    nru.onFill(0, 0, ctx());
    nru.onFill(0, 1, ctx());
    EXPECT_EQ(nru.victim(0, ctx(), 0b01), 1u);
}

TEST(Srrip, InsertsLongAndPromotesOnHit)
{
    SrripPolicy srrip(1, 4);
    srrip.onFill(0, 0, ctx());
    EXPECT_EQ(srrip.rrpv(0, 0), srrip.maxRrpv() - 1);
    srrip.onHit(0, 0, ctx());
    EXPECT_EQ(srrip.rrpv(0, 0), 0u);
}

TEST(Srrip, VictimIsDistantBlock)
{
    SrripPolicy srrip(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        srrip.onFill(0, way, ctx());
    srrip.onHit(0, 1, ctx());
    // Ways 0,2,3 at rrpv 2; way 1 at 0.  Aging pushes 0,2,3 to 3 and
    // the scan picks way 0 first.
    EXPECT_EQ(srrip.victim(0, ctx(), 0), 0u);
    // Way 1 aged to 1 only.
    EXPECT_EQ(srrip.rrpv(0, 1), 1u);
}

TEST(Srrip, AgingPreservesExcludedWays)
{
    SrripPolicy srrip(1, 2);
    srrip.onFill(0, 0, ctx());
    srrip.onFill(0, 1, ctx());
    const unsigned way = srrip.victim(0, ctx(), 0b01);
    EXPECT_EQ(way, 1u);
}

TEST(Brrip, MostlyInsertsDistant)
{
    BrripPolicy brrip(1, 4);
    unsigned distant = 0;
    const int fills = 1000;
    for (int i = 0; i < fills; ++i) {
        brrip.onFill(0, 0, ctx());
        distant += (brrip.rrpv(0, 0) == brrip.maxRrpv()) ? 1 : 0;
    }
    // ~31/32 of fills are distant.
    EXPECT_GT(distant, fills * 9 / 10);
    EXPECT_LT(distant, fills);
}

TEST(Drrip, AssignsLeaderRoles)
{
    DrripPolicy drrip(64, 4);
    unsigned srrip_leaders = 0, brrip_leaders = 0;
    for (unsigned set = 0; set < 64; ++set) {
        if (drrip.duel().role(set) == DuelRole::BaseLeader)
            ++srrip_leaders;
        if (drrip.duel().role(set) == DuelRole::BimodalLeader)
            ++brrip_leaders;
    }
    EXPECT_EQ(srrip_leaders, 32u);
    EXPECT_EQ(brrip_leaders, 32u);
}

TEST(Drrip, PselMovesWithLeaderMisses)
{
    DrripPolicy drrip(64, 4);
    // Find one leader set of each flavour.
    unsigned srrip_set = 64, brrip_set = 64;
    for (unsigned set = 0; set < 64; ++set) {
        if (drrip.duel().role(set) == DuelRole::BaseLeader &&
            srrip_set == 64)
            srrip_set = set;
        if (drrip.duel().role(set) == DuelRole::BimodalLeader &&
            brrip_set == 64)
            brrip_set = set;
    }
    ASSERT_LT(srrip_set, 64u);
    ASSERT_LT(brrip_set, 64u);

    const unsigned before = drrip.duel().psel();
    drrip.onFill(srrip_set, 0, ctx());
    EXPECT_EQ(drrip.duel().psel(), before + 1);
    drrip.onFill(brrip_set, 0, ctx());
    drrip.onFill(brrip_set, 0, ctx());
    EXPECT_EQ(drrip.duel().psel(), before - 1);
}

/** LRU stamps whose fills all enter at the LRU end (LIP insertion). */
class LruEndInsertion final : public LruBase
{
  public:
    using LruBase::LruBase;

    void
    onFill(unsigned set, unsigned way, const ReplContext &) override
    {
        insertLru(set, way);
    }

    std::string name() const override { return "lru-end"; }
};

TEST(InsertionLru, LipInsertsAtLruEnd)
{
    LruEndInsertion lip(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        lip.onFill(0, way, ctx());
    // Every fill goes to the back: the most recent fill is LRU.
    EXPECT_EQ(lip.stackDepth(0, 3), 3u);
    EXPECT_EQ(lip.stackDepth(0, 0), 0u);
    // A hit promotes to MRU.
    lip.onHit(0, 3, ctx());
    EXPECT_EQ(lip.stackDepth(0, 3), 0u);
}

TEST(InsertionLru, VictimIsBackOfList)
{
    LruEndInsertion lip(1, 4);
    for (unsigned way = 0; way < 4; ++way)
        lip.onFill(0, way, ctx());
    EXPECT_EQ(lip.victim(0, ctx(), 0), 3u);
    EXPECT_EQ(lip.victim(0, ctx(), 0b1000), 2u);
}

TEST(Dip, BimodalLeaderMostlyInsertsAtLru)
{
    DipPolicy dip(64, 4);
    unsigned set = 0;
    while (dip.duel().role(set) != DuelRole::BimodalLeader)
        ++set;
    for (unsigned way = 1; way < 4; ++way)
        dip.onHit(set, way, ctx());
    unsigned mru_inserts = 0;
    const int fills = 2000;
    for (int i = 0; i < fills; ++i) {
        dip.onFill(set, 0, ctx());
        mru_inserts += (dip.stackDepth(set, 0) == 0) ? 1 : 0;
    }
    EXPECT_GT(mru_inserts, 10u);
    EXPECT_LT(mru_inserts, static_cast<unsigned>(fills) / 4);
}

TEST(Dip, PselSaturates)
{
    DipPolicy dip(64, 4);
    for (int i = 0; i < 3000; ++i)
        dip.onFill(0, 0, ctx()); // set 0 is a leader
    EXPECT_TRUE(dip.duel().psel() == 0 || dip.duel().psel() == 1023);
}

TEST(Ship, ColdSignatureInsertsLong)
{
    ShipPolicy ship(1, 4);
    // Initial SHCT value is 1 (weakly reused): long insertion.
    ship.onFill(0, 0, ctx(0, 0x1234));
    EXPECT_EQ(ship.rrpv(0, 0), ship.maxRrpv() - 1);
}

TEST(Ship, DeadSignatureLearnsDistantInsertion)
{
    ShipPolicy ship(1, 4);
    const PC pc = 0x1234;
    // Repeated fill->evict without hits drives the counter to zero.
    for (int i = 0; i < 4; ++i) {
        ship.onFill(0, 0, ctx(0, pc));
        ship.onEvict(0, 0);
    }
    EXPECT_EQ(ship.shctValue(ship.signature(pc)), 0u);
    ship.onFill(0, 0, ctx(0, pc));
    EXPECT_EQ(ship.rrpv(0, 0), ship.maxRrpv());
}

TEST(Ship, HitsTrainSignatureUp)
{
    ShipPolicy ship(1, 4);
    const PC pc = 0x9999;
    const unsigned before = ship.shctValue(ship.signature(pc));
    ship.onFill(0, 0, ctx(0, pc));
    ship.onHit(0, 0, ctx(0, pc));
    EXPECT_EQ(ship.shctValue(ship.signature(pc)), before + 1);
    // Second hit on the same residency does not double-train.
    ship.onHit(0, 0, ctx(0, pc));
    EXPECT_EQ(ship.shctValue(ship.signature(pc)), before + 1);
}

TEST(Ship, EvictionAfterHitDoesNotPunish)
{
    ShipPolicy ship(1, 4);
    const PC pc = 0x4242;
    ship.onFill(0, 0, ctx(0, pc));
    ship.onHit(0, 0, ctx(0, pc));
    const unsigned after_hit = ship.shctValue(ship.signature(pc));
    ship.onEvict(0, 0);
    EXPECT_EQ(ship.shctValue(ship.signature(pc)), after_hit);
}

TEST(Opt, EvictsFarthestNextUse)
{
    // Stream: A B C A B D ... with all in one set.
    Trace trace("opt", 1);
    trace.append(0x000, 0, 0, false); // A @0, next @3
    trace.append(0x100, 0, 0, false); // B @1, next @4
    trace.append(0x200, 0, 0, false); // C @2, never again
    trace.append(0x000, 0, 0, false); // A @3
    trace.append(0x100, 0, 0, false); // B @4
    trace.append(0x300, 0, 0, false); // D @5
    const NextUseIndex index(trace);

    OptPolicy opt(1, 3, index);
    opt.onFill(0, 0, ctx(0x000, 0, 0));
    opt.onFill(0, 1, ctx(0x100, 0, 1));
    opt.onFill(0, 2, ctx(0x200, 0, 2));
    EXPECT_EQ(opt.nextUse(0, 0), 3u);
    EXPECT_EQ(opt.nextUse(0, 1), 4u);
    EXPECT_EQ(opt.nextUse(0, 2), kSeqNever);
    // C (way 2) has no future use: it is the OPT victim.
    EXPECT_EQ(opt.victim(0, ctx(0x300, 0, 5), 0), 2u);
    // With way 2 excluded, B (way 1) is farther than A (way 0).
    EXPECT_EQ(opt.victim(0, ctx(0x300, 0, 5), 0b100), 1u);
}

TEST(Opt, HitRefreshesNextUse)
{
    Trace trace("opt2", 1);
    trace.append(0x000, 0, 0, false); // @0
    trace.append(0x000, 0, 0, false); // @1
    trace.append(0x000, 0, 0, false); // @2
    const NextUseIndex index(trace);
    OptPolicy opt(1, 2, index);
    opt.onFill(0, 0, ctx(0x000, 0, 0));
    EXPECT_EQ(opt.nextUse(0, 0), 1u);
    opt.onHit(0, 0, ctx(0x000, 0, 1));
    EXPECT_EQ(opt.nextUse(0, 0), 2u);
    opt.onHit(0, 0, ctx(0x000, 0, 2));
    EXPECT_EQ(opt.nextUse(0, 0), kSeqNever);
}

TEST(Factory, BuildsAllKnownPolicies)
{
    for (const auto &name : builtinPolicyNames()) {
        const auto factory = requirePolicyFactory(name);
        const auto policy = factory(16, 4);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
        EXPECT_EQ(policy->numSets(), 16u);
        EXPECT_EQ(policy->numWays(), 4u);
    }
}

TEST(Factory, NamesAreUnique)
{
    auto names = builtinPolicyNames();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end());
}

TEST(ThreadDuel, LeaderRolesArePerThread)
{
    ThreadDuel duel(256, 4);
    // Find a base-leader set of thread 0.
    unsigned base_set = 256;
    for (unsigned set = 0; set < 256 && base_set == 256; ++set) {
        if (duel.role(set, 0) == DuelRole::BaseLeader)
            base_set = set;
    }
    ASSERT_LT(base_set, 256u);
    // The same set is a follower for every other thread.
    for (unsigned t = 1; t < 4; ++t)
        EXPECT_EQ(duel.role(base_set, t), DuelRole::Follower);
}

TEST(ThreadDuel, EveryThreadHasBothLeaderKinds)
{
    ThreadDuel duel(512, 8);
    for (unsigned t = 0; t < 8; ++t) {
        bool base = false, bimodal = false;
        for (unsigned set = 0; set < 512; ++set) {
            base |= duel.role(set, t) == DuelRole::BaseLeader;
            bimodal |=
                duel.role(set, t) == DuelRole::BimodalLeader;
        }
        EXPECT_TRUE(base) << "thread " << t;
        EXPECT_TRUE(bimodal) << "thread " << t;
    }
}

TEST(ThreadDuel, PselPerThreadIndependent)
{
    ThreadDuel duel(256, 2);
    unsigned base_set0 = 256;
    for (unsigned set = 0; set < 256 && base_set0 == 256; ++set) {
        if (duel.role(set, 0) == DuelRole::BaseLeader)
            base_set0 = set;
    }
    ASSERT_LT(base_set0, 256u);
    const unsigned before0 = duel.psel(0);
    const unsigned before1 = duel.psel(1);
    duel.useBimodal(base_set0, 0); // thread 0 misses its base leader
    EXPECT_EQ(duel.psel(0), before0 + 1);
    EXPECT_EQ(duel.psel(1), before1);
}

TEST(ThreadDuel, ThrashingThreadSwitchesToBimodal)
{
    ThreadDuel duel(256, 2);
    unsigned base_set = 256, follower = 256;
    for (unsigned set = 0; set < 256; ++set) {
        if (duel.role(set, 0) == DuelRole::BaseLeader &&
            base_set == 256)
            base_set = set;
        if (duel.role(set, 0) == DuelRole::Follower &&
            duel.role(set, 1) == DuelRole::Follower &&
            follower == 256)
            follower = set;
    }
    ASSERT_LT(base_set, 256u);
    ASSERT_LT(follower, 256u);
    // Thread 0 misses heavily in its base-leader sets.
    for (int i = 0; i < 600; ++i)
        duel.useBimodal(base_set, 0);
    EXPECT_TRUE(duel.useBimodal(follower, 0));
    // Thread 1's selector is untouched and stays at the midpoint,
    // which maps to bimodal-off only if below the threshold.
    EXPECT_EQ(duel.psel(1), 512u);
}

TEST(TaDrrip, ThreadsGetDifferentInsertion)
{
    TaDrripPolicy policy(256, 4, 2);
    // Drive thread 0 to bimodal.
    for (unsigned set = 0; set < 256; ++set) {
        if (policy.duel().role(set, 0) ==
            DuelRole::BaseLeader) {
            for (int i = 0; i < 700; ++i)
                policy.onFill(set, 0,
                              ReplContext{0, 0x400, 0, false, 0,
                                          false});
        }
    }
    EXPECT_EQ(policy.duel().psel(1), 1u << 9); // thread 1 untouched...
    EXPECT_GT(policy.duel().psel(0), 1u << 9); // ...thread 0 thrashes
}

TEST(MesiNames, AllStatesPrintable)
{
    EXPECT_STREQ(mesiStateName(MesiState::Invalid), "I");
    EXPECT_STREQ(mesiStateName(MesiState::Shared), "S");
    EXPECT_STREQ(mesiStateName(MesiState::Exclusive), "E");
    EXPECT_STREQ(mesiStateName(MesiState::Modified), "M");
}

// Property test: every policy, under a random access pattern with
// random exclusions, always returns a non-excluded way in range.
TEST(ReplProperty, VictimAlwaysLegal)
{
    for (const auto &name : builtinPolicyNames()) {
        const auto factory = requirePolicyFactory(name);
        auto policy = factory(8, 4);
        Rng rng(1234);
        std::vector<std::vector<bool>> valid(8,
                                             std::vector<bool>(4, false));
        for (int i = 0; i < 4000; ++i) {
            const unsigned set = static_cast<unsigned>(rng.below(8));
            const auto c = ctx(rng.below(64) * kBlockBytes,
                               0x400 + rng.below(16), i);
            bool full = true;
            for (unsigned w = 0; w < 4; ++w)
                full &= valid[set][w];
            if (!full) {
                for (unsigned w = 0; w < 4; ++w) {
                    if (!valid[set][w]) {
                        policy->onFill(set, w, c);
                        valid[set][w] = true;
                        break;
                    }
                }
                continue;
            }
            // Random exclusion mask, never all ways.
            const std::uint64_t exclude = rng.below(15);
            const unsigned way = policy->victim(set, c, exclude);
            ASSERT_LT(way, 4u) << name;
            ASSERT_EQ(exclude & (1ULL << way), 0u) << name;
            if (rng.chance(0.5)) {
                policy->onEvict(set, way);
                policy->onFill(set, way, c);
            } else {
                policy->onHit(set, way, c);
            }
        }
    }
}

} // namespace
} // namespace casim
