/**
 * @file
 * Tests of the lean per-way replay state:
 *
 *  - FilterReference: the mask-based SharingAwareWrapper against a
 *    reference copy of the filter that keeps its per-way state in byte
 *    arrays and scans every way, replayed side by side on random
 *    streams and labels over several base policies.
 *  - LeanTraining: predictor replays learn from every residency
 *    StreamSim's residency record reports.
 *  - TagRange: the 32-bit block-number rule of the tag store, at the
 *    cache and wherever addresses enter (Trace::append, the CCAP v4
 *    data check, a replay of a mapped bundle).
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/rng.hh"
#include "core/oracle.hh"
#include "core/predictor.hh"
#include "core/sharing_aware.hh"
#include "mem/cache.hh"
#include "mem/repl/factory.hh"
#include "sim/stream_sim.hh"
#include "trace/next_use.hh"
#include "trace/trace_io.hh"

namespace casim {
namespace {

// ---------------------------------------------------------------------
// FilterReference
// ---------------------------------------------------------------------

/**
 * The sharing-aware filter as it was before its state moved into
 * per-set masks: one byte array per flag, a per-way expiry and fill
 * core, and way-by-way scans on every victimisation and quota check.
 * Leader sets are ordered by a comparator that hashes both operands.
 */
class ByteArraySharingAware final : public ReplPolicy
{
  public:
    ByteArraySharingAware(std::unique_ptr<ReplPolicy> base,
                          unsigned pre_rounds, unsigned post_rounds,
                          double quota, bool dueling, bool demote_private)
        : ReplPolicy(base->numSets(), base->numWays()),
          base_(std::move(base)), preRounds_(pre_rounds),
          postRounds_(post_rounds != 0 ? post_rounds
                                       : std::max(1u, pre_rounds / 4)),
          maxProtected_(std::max(
              1u, static_cast<unsigned>(quota * numWays() + 0.5))),
          dueling_(dueling), demotePrivate_(demote_private),
          roles_(numSets(), Role::Follower), clock_(numSets(), 0),
          protected_(perWay(), 0), demoted_(perWay(), 0),
          sharedSeen_(perWay(), 0), fillCore_(perWay(), 0),
          expiry_(perWay(), 0)
    {
        if (!dueling_)
            return;
        const unsigned leaders_per_policy =
            numSets() >= 256 ? 64 : std::max(1u, numSets() / 4);
        const unsigned total_leaders =
            std::min(numSets(), 2 * leaders_per_policy);
        std::vector<unsigned> order(numSets());
        for (unsigned set = 0; set < numSets(); ++set)
            order[set] = set;
        std::sort(order.begin(), order.end(),
                  [](unsigned a, unsigned b) {
                      return mix64(a ^ 0x5a5a) < mix64(b ^ 0x5a5a);
                  });
        for (unsigned k = 0; k < total_leaders; ++k)
            roles_[order[k]] =
                (k % 2 == 0) ? Role::OnLeader : Role::OffLeader;
    }

    enum class Role : std::uint8_t { Follower, OnLeader, OffLeader };

    Role role(unsigned set) const { return roles_[set]; }
    unsigned psel() const { return psel_; }

    bool
    followersProtect() const
    {
        return psel_ + kPselMargin < (1u << (kPselBits - 1));
    }

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        const std::uint64_t now = ++clock_[set];
        std::uint64_t protect_mask = 0;
        std::uint64_t demote_mask = 0;
        if (protectionActive(set)) {
            for (unsigned way = 0; way < numWays(); ++way) {
                const std::size_t f = flat(set, way);
                if (demoted_[f])
                    demote_mask |= 1ULL << way;
                if (!protected_[f])
                    continue;
                if (now >= expiry_[f]) {
                    protected_[f] = 0;
                    continue;
                }
                protect_mask |= 1ULL << way;
            }
        }
        const std::uint64_t all =
            numWays() >= 64 ? ~0ULL : ((1ULL << numWays()) - 1);
        const std::uint64_t prefer_demoted =
            exclude | (all & ~demote_mask);
        if (protect_mask != 0 && demote_mask != 0 &&
            (prefer_demoted & all) != all) {
            ++demotedVictims_;
            return base_->victim(set, ctx, prefer_demoted);
        }
        std::uint64_t combined = exclude | protect_mask;
        if ((combined & all) == all) {
            ++saturatedSets_;
            combined = exclude;
        }
        const unsigned way = base_->victim(set, ctx, combined);
        if (combined != exclude)
            ++filteredVictims_;
        return way;
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        base_->onFill(set, way, ctx);
        if (dueling_) {
            if (roles_[set] == Role::OnLeader && psel_ < kPselMax)
                ++psel_;
            else if (roles_[set] == Role::OffLeader && psel_ > 0)
                --psel_;
        }
        const std::size_t f = flat(set, way);
        protected_[f] = 0;
        const bool grant = ctx.predictedShared &&
                           protectionActive(set) &&
                           protectedWays(set) < maxProtected_;
        protected_[f] = grant ? 1 : 0;
        demoted_[f] = (demotePrivate_ && !ctx.predictedShared) ? 1 : 0;
        sharedSeen_[f] = 0;
        fillCore_[f] = ctx.core;
        expiry_[f] = expiryFor(f, clock_[set]);
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        base_->onHit(set, way, ctx);
        const std::uint64_t now = ++clock_[set];
        const std::size_t f = flat(set, way);
        if (protected_[f]) {
            if (ctx.core != fillCore_[f])
                sharedSeen_[f] = 1;
            expiry_[f] = expiryFor(f, now);
        }
    }

    void
    onEvict(unsigned set, unsigned way) override
    {
        base_->onEvict(set, way);
        clearWay(set, way);
    }

    void
    onInvalidate(unsigned set, unsigned way) override
    {
        base_->onInvalidate(set, way);
        clearWay(set, way);
    }

    std::string name() const override { return "ref+" + base_->name(); }

    bool
    isProtected(unsigned set, unsigned way) const
    {
        const std::size_t f = flat(set, way);
        return protected_[f] != 0 && clock_[set] < expiry_[f];
    }

    bool
    isDemoted(unsigned set, unsigned way) const
    {
        return demoted_[flat(set, way)] != 0;
    }

    std::uint64_t filteredVictims() const { return filteredVictims_; }
    std::uint64_t demotedVictims() const { return demotedVictims_; }
    std::uint64_t saturatedSets() const { return saturatedSets_; }

  private:
    std::size_t
    perWay() const
    {
        return static_cast<std::size_t>(numSets()) * numWays();
    }

    std::uint64_t
    expiryFor(std::size_t f, std::uint64_t now) const
    {
        return now + (sharedSeen_[f] ? postRounds_ : preRounds_);
    }

    unsigned
    protectedWays(unsigned set) const
    {
        unsigned count = 0;
        for (unsigned way = 0; way < numWays(); ++way)
            count += isProtected(set, way) ? 1 : 0;
        return count;
    }

    bool
    protectionActive(unsigned set) const
    {
        if (!dueling_)
            return true;
        switch (roles_[set]) {
          case Role::OnLeader:
            return true;
          case Role::OffLeader:
            return false;
          case Role::Follower:
          default:
            return followersProtect();
        }
    }

    void
    clearWay(unsigned set, unsigned way)
    {
        const std::size_t f = flat(set, way);
        protected_[f] = 0;
        demoted_[f] = 0;
        sharedSeen_[f] = 0;
    }

    static constexpr unsigned kPselBits = 10;
    static constexpr unsigned kPselMax = (1u << kPselBits) - 1;
    static constexpr unsigned kPselMargin = 1u << (kPselBits - 3);

    std::unique_ptr<ReplPolicy> base_;
    unsigned preRounds_;
    unsigned postRounds_;
    unsigned maxProtected_;
    bool dueling_;
    bool demotePrivate_;
    std::vector<Role> roles_;
    unsigned psel_ = 1u << (kPselBits - 1);
    std::vector<std::uint64_t> clock_;
    std::vector<std::uint8_t> protected_;
    std::vector<std::uint8_t> demoted_;
    std::vector<std::uint8_t> sharedSeen_;
    std::vector<CoreId> fillCore_;
    std::vector<std::uint64_t> expiry_;
    std::uint64_t filteredVictims_ = 0;
    std::uint64_t demotedVictims_ = 0;
    std::uint64_t saturatedSets_ = 0;
};

/** One filter configuration of the side-by-side replays. */
struct FilterParams
{
    unsigned preRounds;
    unsigned postRounds;
    double quota;
    bool dueling;
    bool demotePrivate;
};

/** What the side-by-side replays of one base policy exercised. */
struct FilterCoverage
{
    std::uint64_t saturated = 0;
    std::uint64_t filtered = 0;
    std::uint64_t demoted = 0;
    std::uint64_t pselFlips = 0;
    std::uint64_t expiries = 0;
};

/**
 * Replay one random stream through two caches, one filtered by the
 * mask-based wrapper and one by the byte-array reference, and require
 * the same hit/miss outcome, victim way, PSEL and filter counters at
 * every step.  The label bias swings between phases so the dueling
 * selector flips; a few external invalidations exercise
 * onInvalidate.
 */
void
replaySideBySide(const std::string &base, const FilterParams &params,
                 std::uint64_t seed, FilterCoverage &coverage)
{
    const CacheGeometry geo{64 * 8 * kBlockBytes, 8, kBlockBytes};
    const ReplPolicyFactory make_base = requirePolicyFactory(base);
    auto lean_owner = std::make_unique<SharingAwareWrapper>(
        make_base(geo.numSets(), geo.ways), params.preRounds,
        params.postRounds, params.quota, params.dueling,
        params.demotePrivate);
    auto ref_owner = std::make_unique<ByteArraySharingAware>(
        make_base(geo.numSets(), geo.ways), params.preRounds,
        params.postRounds, params.quota, params.dueling,
        params.demotePrivate);
    SharingAwareWrapper &lean = *lean_owner;
    ByteArraySharingAware &ref = *ref_owner;
    Cache lean_cache("lean", geo, std::move(lean_owner));
    Cache ref_cache("ref", geo, std::move(ref_owner));

    for (unsigned set = 0; set < geo.numSets(); ++set)
        ASSERT_EQ(static_cast<int>(lean.role(set)),
                  static_cast<int>(ref.role(set)))
            << "leader roles differ at set " << set;

    const std::string what = base + " seed " + std::to_string(seed);
    Rng rng(seed);
    bool protecting = lean.followersProtect();
    constexpr int kRefs = 40000;
    for (int i = 0; i < kRefs; ++i) {
        // Phases of mostly-shared and mostly-private labels drive the
        // leaders' votes one way and then the other.
        const double shared_bias = ((i / 5000) % 2 == 0) ? 0.85 : 0.1;
        const Addr block = rng.below(geo.numSets() * geo.ways * 3) *
                           kBlockBytes;
        ReplContext ctx{block, 0x400, static_cast<CoreId>(rng.below(4)),
                        rng.chance(0.2), static_cast<SeqNo>(i), false};
        const unsigned lean_way = lean_cache.accessWay(ctx);
        const unsigned ref_way = ref_cache.accessWay(ctx);
        ASSERT_EQ(lean_way, ref_way) << what << " access " << i;
        if (lean_way == geo.ways) {
            ctx.predictedShared = rng.chance(shared_bias);
            const unsigned set = lean_cache.setIndex(block);
            std::vector<bool> was_protected(geo.ways);
            for (unsigned way = 0; way < geo.ways; ++way)
                was_protected[way] = ref.isProtected(set, way);
            ASSERT_EQ(lean_cache.fillWay(ctx), ref_cache.fillWay(ctx))
                << what << " victim at access " << i;
            for (unsigned way = 0; way < geo.ways; ++way)
                coverage.expiries += was_protected[way] &&
                                     !ref.isProtected(set, way);
        }
        if (rng.below(64) == 0) {
            const Addr gone = rng.below(geo.numSets() * geo.ways * 3) *
                              kBlockBytes;
            ASSERT_EQ(lean_cache.invalidate(gone),
                      ref_cache.invalidate(gone))
                << what;
        }
        ASSERT_EQ(lean.psel(), ref.psel()) << what << " access " << i;
        ASSERT_EQ(lean.filteredVictims(), ref.filteredVictims()) << what;
        ASSERT_EQ(lean.demotedVictims(), ref.demotedVictims()) << what;
        ASSERT_EQ(lean.saturatedSets(), ref.saturatedSets()) << what;
        if (lean.followersProtect() != protecting) {
            protecting = !protecting;
            ++coverage.pselFlips;
        }
        if (i % 997 == 0) {
            for (unsigned set = 0; set < geo.numSets(); ++set) {
                for (unsigned way = 0; way < geo.ways; ++way) {
                    ASSERT_EQ(lean.isProtected(set, way),
                              ref.isProtected(set, way))
                        << what << " set " << set << " way " << way;
                    ASSERT_EQ(lean.isDemoted(set, way),
                              ref.isDemoted(set, way))
                        << what << " set " << set << " way " << way;
                }
            }
        }
    }
    EXPECT_EQ(lean_cache.demandMisses(), ref_cache.demandMisses()) << what;
    coverage.saturated += lean.saturatedSets();
    coverage.filtered += lean.filteredVictims();
    coverage.demoted += lean.demotedVictims();
}

TEST(FilterReference, MatchesByteArrayFilterOnRandomStreams)
{
    const std::vector<FilterParams> configs = {
        {256, 0, 0.5, true, true},  // the study's defaults
        {6, 2, 0.25, true, true},   // short budgets: frequent expiry
        {12, 0, 1.0, true, false},  // no quota cap: saturation
        {4, 1, 0.5, false, true},   // no dueling
        {64, 8, 0.75, false, false},
    };
    for (const std::string base : {"lru", "srrip", "nru", "drrip"}) {
        FilterCoverage coverage;
        std::uint64_t seed = 11;
        for (const FilterParams &params : configs) {
            replaySideBySide(base, params, seed++, coverage);
            if (HasFatalFailure())
                return;
        }
        // The streams must reach the paths they are meant to check.
        EXPECT_GT(coverage.saturated, 0u) << base;
        EXPECT_GT(coverage.filtered, 0u) << base;
        EXPECT_GT(coverage.demoted, 0u) << base;
        EXPECT_GT(coverage.pselFlips, 0u) << base;
        EXPECT_GT(coverage.expiries, 0u) << base;
    }
}

// ---------------------------------------------------------------------
// LeanTraining
// ---------------------------------------------------------------------

/** Four cores with a PC per phase of blocks, about twice the capacity. */
const Trace &
trainingTrace()
{
    static const Trace trace = [] {
        Rng rng(4099);
        Trace t("training", 4);
        for (int i = 0; i < 30000; ++i) {
            const std::uint64_t block = rng.below(2048);
            // Half the blocks are touched by one core only, so the
            // outcomes are a mix of shared and private residencies.
            const auto core = static_cast<CoreId>(
                block % 2 == 0 ? block % 4 : rng.below(4));
            t.append(block * kBlockBytes, 0x400 + (block % 48) * 4, core,
                     rng.chance(0.25));
        }
        return t;
    }();
    return trace;
}

TEST(LeanTraining, TrainingLabelersReplayWithoutThePayload)
{
    const CacheGeometry geo{64 * 1024, 8, kBlockBytes};
    const auto lru = [&geo] {
        return std::make_unique<StreamSim>(
            trainingTrace(), geo,
            requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    };
    PredictorConfig config;
    PcSharingPredictor predictor(config);
    auto predicted = lru();
    predicted->setLabeler(&predictor);
    predicted->run();
    // Every fill's residency ends once: by eviction or the final flush.
    EXPECT_EQ(predictor.trainings(), predicted->cache().demandMisses());

    static const NextUseIndex index(trainingTrace());
    OracleLabeler truth(index, 4 * (geo.sizeBytes / kBlockBytes));
    NeverSharedLabeler never;
    LabelerEvaluator evaluator(never, &truth);
    auto evaluated = lru();
    evaluated->setLabeler(&evaluator);
    evaluated->run();
    EXPECT_GT(evaluator.outcomeAccuracy(), 0.0);
}

// ---------------------------------------------------------------------
// TagRange
// ---------------------------------------------------------------------

/** The largest block number the 32-bit tag store holds. */
constexpr Addr kTopBlock = (kBlockNumberLimit - 1) << kBlockShift;

std::unique_ptr<Cache>
smallCache()
{
    const CacheGeometry geo{16 * 1024, 4, kBlockBytes};
    return std::make_unique<Cache>(
        "tags", geo, requirePolicyFactory("lru")(geo.numSets(), geo.ways));
}

ReplContext
ctxFor(Addr block)
{
    return ReplContext{block, 0x400, 0, false, 0, false};
}

TEST(TagRange, TopBlockNumberRoundTrips)
{
    auto cache = smallCache();
    const unsigned way = cache->fillWay(ctxFor(kTopBlock));
    const unsigned set = cache->setIndex(kTopBlock);
    EXPECT_EQ(cache->tagAt(set, way), kTopBlock);
    EXPECT_TRUE(cache->contains(kTopBlock));
    EXPECT_EQ(cache->accessWay(ctxFor(kTopBlock)), way);
    EXPECT_EQ(cache->demandHits(), 1u);
    EXPECT_EQ(cache->tagOf(kTopBlock), kBlockNumberLimit - 1);
}

TEST(TagRange, AddressesBeyondTheRangeNeverHit)
{
    auto cache = smallCache();
    const unsigned sets = cache->geometry().numSets();
    // Fill every set the probes below map to: the top block's, and the
    // last set, where the reserved block number itself lands.
    cache->fillWay(ctxFor(kTopBlock));
    cache->fillWay(ctxFor((kBlockNumberLimit - sets) << kBlockShift));
    // The first is the reserved block number itself; the others would
    // truncate to kTopBlock's 32-bit tag.
    for (const Addr beyond :
         {kBlockNumberLimit << kBlockShift,
          kTopBlock + (Addr{1} << (32 + kBlockShift)),
          kTopBlock | (Addr{1} << 63)}) {
        EXPECT_EQ(cache->tagOf(beyond), simd::kTagInvalid);
        EXPECT_FALSE(cache->contains(beyond));
        EXPECT_EQ(cache->accessWay(ctxFor(beyond)),
                  cache->geometry().ways);
    }
    EXPECT_EQ(cache->demandHits(), 0u);
}

/** A scratch file removed at scope exit. */
struct ScratchFile
{
    std::string path = (std::filesystem::temp_directory_path() /
                        ("casim_tag_range_" +
                         std::to_string(::getpid()) + ".ccap"))
                           .string();
    ~ScratchFile()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
};

constexpr std::uint64_t kBundleHash = 0x7a6e5e11;

/**
 * Write a bundle whose middle record's address lies beyond the
 * 32-bit block-number range.  The records bypass Trace::append (which
 * refuses such an address) through a trace view.
 */
void
writeOutOfRangeBundle(const std::string &path)
{
    static const std::vector<MemAccess> records = [] {
        std::vector<MemAccess> out;
        for (Addr b = 0; b < 64; ++b)
            out.push_back(makeAccess(b * kBlockBytes, 0x400, 0, false));
        out[32].block = static_cast<std::uint32_t>(kBlockNumberLimit);
        return out;
    }();
    const Trace view = Trace::view("beyond", 1, records.data(),
                                   records.size(), nullptr);
    ASSERT_TRUE(writeFileDurably(path, [&](std::ostream &os) {
        return writeCaptureBundle(os, kBundleHash, {}, view);
    }));
}

TEST(TagRange, DataCheckRejectsAddressesBeyondTheRange)
{
    ScratchFile file;
    writeOutOfRangeBundle(file.path);
    MappedCaptureBundle bundle;
    std::string error;
    EXPECT_FALSE(
        readInCaptureBundle(file.path, kBundleHash, bundle, &error));
    EXPECT_NE(error.find("block-number range"), std::string::npos)
        << error;
}

TEST(TagRangeDeathTest, TraceAppendRefusesAddressesBeyondTheRange)
{
    Trace trace("beyond", 1);
    trace.append(kTopBlock, 0x400, 0, false);
    EXPECT_DEATH(trace.append(kBlockNumberLimit << kBlockShift, 0x400, 0,
                              false),
                 "block-number range");
}

TEST(TagRangeDeathTest, TraceAppendRefusesPcsBeyond32Bits)
{
    // Records store 32-bit PCs; a wider one is refused, not truncated.
    Trace trace("wide-pc", 1);
    trace.append(0x1000, 0xFFFFFFFF, 0, false);
    EXPECT_EQ(trace[0].pc, 0xFFFFFFFFu);
    EXPECT_DEATH(trace.append(0x1000, PC{1} << 32, 0, false),
                 "32-bit PC range");
}

TEST(TagRangeDeathTest, FillRefusesAddressesBeyondTheRange)
{
    auto cache = smallCache();
    EXPECT_DEATH(cache->fillWay(ctxFor(kBlockNumberLimit << kBlockShift)),
                 "block-number range");
}

/** Map the bundle at `path` and replay it through a small LRU LLC. */
void
replayMappedBundle(const std::string &path)
{
    MappedCaptureBundle bundle;
    std::string error;
    if (!mapCaptureBundle(path, kBundleHash, bundle, &error))
        casim_fatal("cannot map ", path, ": ", error);
    const CacheGeometry geo{16 * 1024, 4, kBlockBytes};
    StreamSim sim(bundle.stream, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();
}

TEST(TagRangeDeathTest, MappedReplayRefusesAddressesBeyondTheRange)
{
    ScratchFile file;
    writeOutOfRangeBundle(file.path);
    // Release builds map the header only, so the replay's first fill
    // of the address is what refuses it; paranoid builds run the data
    // check at map time.  Either way the diagnostic names the range.
    EXPECT_DEATH(replayMappedBundle(file.path), "block-number range");
}

} // namespace
} // namespace casim
