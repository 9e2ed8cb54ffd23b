/**
 * @file
 * The generic sharing-aware victim filter — the paper's core mechanism.
 *
 * Wraps any base replacement policy.  Fills arrive carrying a fill-time
 * sharing label (from an oracle or a predictor); labeled blocks are
 * protected from victimisation while their predicted sharing is still
 * pending.
 *
 * Protection ages on a per-set access clock (every hit or
 * victimisation in the set advances it), so a stale protected block
 * expires after a bounded amount of set activity regardless of the
 * set's miss rate — aging per victimisation alone would make
 * protection nearly eternal in low-miss configurations and pin dead
 * "shared" blocks.  Two budgets bound the lifetime:
 *
 *  - pre-share: how long a labeled block may wait for its first
 *    cross-core touch (the sharing the label promised);
 *  - post-share: how long it survives after sharing has been observed
 *    once it stops receiving hits.  Migratory data (read-modify-write
 *    passed between cores, then dead) would otherwise linger.
 *
 * Hits refresh the clock.  If every candidate in a set is protected,
 * the filter falls back to the base policy to avoid set lock-up.  The
 * base policy still ranks the non-protected candidates, so the wrapper
 * composes with LRU, RRIP, SHiP, etc. unchanged.
 */

#ifndef CASIM_CORE_SHARING_AWARE_HH
#define CASIM_CORE_SHARING_AWARE_HH

#include <bit>
#include <memory>
#include <vector>

#include "mem/repl/policy.hh"

namespace casim {

/** Sharing-aware victim-filter wrapper around a base policy. */
class SharingAwareWrapper final : public ReplPolicy
{
  public:
    /**
     * @param base        The policy whose victim ranking is filtered.
     * @param pre_rounds  Set accesses a protected block may await its
     *                    promised sharing without receiving a hit.
     * @param post_rounds Set accesses a block survives after its
     *                    sharing was observed, once hits stop.  0
     *                    selects pre_rounds / 4 (min 1).
     * @param quota       Maximum fraction of a set's ways that may be
     *                    protected at once.  New fills are not granted
     *                    protection while the set is at quota, which
     *                    bounds how far the filter can distort the
     *                    base policy's ranking in a nearly-fitting
     *                    cache.
     * @param dueling     Enable set dueling: a group of leader sets
     *                    always applies sharing-awareness, another
     *                    never does, and a saturating selector (PSEL)
     *                    turns it on or off for the followers.
     *                    Applications whose sharing does not reward it
     *                    then degrade to the plain base policy instead
     *                    of losing performance.
     * @param demote_private Also victimise fills labeled NOT-shared
     *                    first (until their first hit), the insertion-
     *                    side half of sharing-awareness: streaming
     *                    private data stops displacing shared data.
     */
    explicit SharingAwareWrapper(std::unique_ptr<ReplPolicy> base,
                                 unsigned pre_rounds = 256,
                                 unsigned post_rounds = 0,
                                 double quota = 0.5,
                                 bool dueling = true,
                                 bool demote_private = true);

    /** Set-dueling role of a set. */
    enum class Role : std::uint8_t { Follower, OnLeader, OffLeader };

    /** Role assigned to a set (exposed for tests). */
    Role role(unsigned set) const { return roles_[set]; }

    /** Current PSEL value (exposed for tests). */
    unsigned psel() const { return psel_; }

    /**
     * True iff followers currently apply protection.  The selector
     * must clear a margin below the midpoint: phase-changing workloads
     * make the leader signal oscillate around neutral, and engaging
     * sharing-awareness on a noisy neutral signal only does damage.
     */
    bool
    followersProtect() const
    {
        return psel_ + kPselMargin < (1u << (kPselBits - 1));
    }

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        return victimWith(*base_, set, ctx, exclude);
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        onFillWith(*base_, set, way, ctx);
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        onHitWith(*base_, set, way, ctx);
    }

    void
    onEvict(unsigned set, unsigned way) override
    {
        onEvictWith(*base_, set, way);
    }

    /**
     * The per-access hooks with the base policy seen as `base`, which
     * must be base() itself — as its concrete final type when the
     * caller knows it (see SharingAwareOver), so the base's hooks
     * inline too.  The virtual hooks above pass the ReplPolicy.
     */
    template <typename Base>
    unsigned
    victimWith(Base &base, unsigned set, const ReplContext &ctx,
               std::uint64_t exclude)
    {
        SetState &state = sets_[set];
        const std::uint64_t now = ++state.clock;

        // The dueling decision gates victim filtering as well as
        // grants: once the selector learns protection hurts,
        // protections granted earlier (and kept alive by hit
        // refreshes) must stop vetoing victims immediately.  Expired
        // protections are dropped lazily, here.
        std::uint64_t protect_mask = 0;
        std::uint64_t demote_mask = 0;
        if (protectionActive(set)) {
            demote_mask = state.demoted;
            for (std::uint64_t live = state.protect; live != 0;
                 live &= live - 1) {
                const unsigned way =
                    static_cast<unsigned>(std::countr_zero(live));
                if (now >= expiry_[flat(set, way)])
                    state.protect &= ~(1ULL << way);
            }
            protect_mask = state.protect;
        }

        const std::uint64_t all =
            numWays() >= 64 ? ~0ULL : ((1ULL << numWays()) - 1);

        // Victim preference order: (1) among demoted not-shared fills
        // — but only while the set actually holds protected shared
        // blocks, because the point of demotion is to retain shared
        // data at the expense of private data, not to act as a
        // standalone dead-block heuristic; (2) among non-protected
        // ways; (3) anything the caller allows.  Each step falls
        // through when it would exclude every candidate.
        const std::uint64_t prefer_demoted =
            exclude | (all & ~demote_mask);
        if (protect_mask != 0 && demote_mask != 0 &&
            (prefer_demoted & all) != all) {
            ++demotedVictims_;
            return base.victim(set, ctx, prefer_demoted);
        }

        std::uint64_t combined = exclude | protect_mask;
        if ((combined & all) == all) {
            // Every candidate is protected: fall back to the caller's
            // exclusions only, otherwise the set would deadlock.
            ++saturatedSets_;
            combined = exclude;
        }

        // Note: victim() may mutate base-policy state (RRIP aging), so
        // the base is consulted exactly once per victimisation.
        const unsigned way = base.victim(set, ctx, combined);
        if (combined != exclude)
            ++filteredVictims_;
        return way;
    }

    template <typename Base>
    void
    onFillWith(Base &base, unsigned set, unsigned way,
               const ReplContext &ctx)
    {
        base.onFill(set, way, ctx);
        // A fill means this set missed: leaders vote for or against
        // protection with their misses.
        if (dueling_) {
            if (roles_[set] == Role::OnLeader && psel_ < kPselMax)
                ++psel_;
            else if (roles_[set] == Role::OffLeader && psel_ > 0)
                --psel_;
        }
        SetState &state = sets_[set];
        const std::uint64_t bit = 1ULL << way;
        // The way being filled cannot itself be protected (onEvict or
        // onInvalidate ran first), so the quota check counts the
        // others.
        state.protect &= ~bit;
        const bool grant = ctx.predictedShared &&
                           protectionActive(set) &&
                           protectedWays(set) < maxProtected_;
        state.protect |= grant ? bit : 0;
        // The demotion bit is pure label state, never gated by the
        // dueling decision at fill time: gating it would leave a mix of
        // demoted and non-demoted private blocks behind every PSEL
        // flip, and the resulting age-based victim split acts like
        // bimodal insertion — gains that have nothing to do with
        // sharing.  victim() gates its *use* instead.
        const bool demote = demotePrivate_ && !ctx.predictedShared;
        state.demoted = (state.demoted & ~bit) | (demote ? bit : 0);
        state.sharedSeen &= ~bit;
        const std::size_t f = flat(set, way);
        fillCore_[f] = ctx.core;
        expiry_[f] = state.clock + preRounds_;
    }

    template <typename Base>
    void
    onHitWith(Base &base, unsigned set, unsigned way,
              const ReplContext &ctx)
    {
        base.onHit(set, way, ctx);
        SetState &state = sets_[set];
        const std::uint64_t now = ++state.clock;
        const std::uint64_t bit = 1ULL << way;
        // The demotion bit is deliberately NOT cleared by hits: it
        // encodes shared-vs-private, not dead-vs-live.  Clearing it on
        // hits would turn the filter into a generic dead-block
        // predictor and credit "sharing-awareness" with gains that have
        // nothing to do with sharing (e.g. in fully-private workloads).
        if (state.protect & bit) {
            // A hit refreshes the protection clock; a cross-core hit
            // marks the promised sharing as observed.
            const std::size_t f = flat(set, way);
            if (ctx.core != fillCore_[f])
                state.sharedSeen |= bit;
            expiry_[f] = now + ((state.sharedSeen & bit) ? postRounds_
                                                         : preRounds_);
        }
    }

    template <typename Base>
    void
    onEvictWith(Base &base, unsigned set, unsigned way)
    {
        base.onEvict(set, way);
        clearWay(set, way);
    }

    void onInvalidate(unsigned set, unsigned way) override;
    std::string name() const override;

    /** True iff (set, way) currently holds an unexpired protection. */
    bool
    isProtected(unsigned set, unsigned way) const
    {
        return ((sets_[set].protect >> way) & 1) != 0 &&
               sets_[set].clock < expiry_[flat(set, way)];
    }

    /** Victimisations where at least one protected way was excluded. */
    std::uint64_t filteredVictims() const { return filteredVictims_; }

    /** Victimisations resolved among demoted (not-shared) fills. */
    std::uint64_t demotedVictims() const { return demotedVictims_; }

    /** True iff (set, way) holds a demoted (not-yet-hit) fill. */
    bool
    isDemoted(unsigned set, unsigned way) const
    {
        return ((sets_[set].demoted >> way) & 1) != 0;
    }

    /** Victimisations where every candidate was protected. */
    std::uint64_t saturatedSets() const { return saturatedSets_; }

    /** The wrapped base policy (for tests). */
    ReplPolicy &base() { return *base_; }

  private:
    /**
     * A set's filter state: its access clock and one bit per way for
     * each label flag.  A protect bit may outlive its expiry stamp
     * until victim() drops it, so isProtected() also checks the clock.
     */
    struct SetState
    {
        /** Ticks on every hit and victimisation in the set. */
        std::uint64_t clock = 0;
        /** Ways granted protection. */
        std::uint64_t protect = 0;
        /** Ways filled with a not-shared label. */
        std::uint64_t demoted = 0;
        /** Protected ways that have seen a cross-core hit. */
        std::uint64_t sharedSeen = 0;
    };

    /** Number of ways in `set` currently holding live protection. */
    unsigned
    protectedWays(unsigned set) const
    {
        const SetState &state = sets_[set];
        unsigned count = 0;
        for (std::uint64_t live = state.protect; live != 0;
             live &= live - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(live));
            count += state.clock < expiry_[flat(set, way)] ? 1 : 0;
        }
        return count;
    }

    /** True iff fills in `set` should be granted protection now. */
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

    /** Forget the label state of a residency that just ended. */
    void
    clearWay(unsigned set, unsigned way)
    {
        SetState &state = sets_[set];
        const std::uint64_t keep = ~(1ULL << way);
        state.protect &= keep;
        state.demoted &= keep;
        state.sharedSeen &= keep;
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
    std::vector<SetState> sets_;
    /** Per-way fill core and protection expiry stamp (set clock). */
    std::vector<CoreId> fillCore_;
    std::vector<std::uint64_t> expiry_;
    std::uint64_t filteredVictims_ = 0;
    std::uint64_t demotedVictims_ = 0;
    std::uint64_t saturatedSets_ = 0;
};

/**
 * A SharingAwareWrapper seen together with its base policy's concrete
 * type: the policy interface a statically dispatched replay loop calls
 * (see visitPolicy), with the base's hooks direct calls as well.
 */
template <typename Base>
struct SharingAwareOver
{
    SharingAwareWrapper &wrapper;
    Base &base;

    unsigned
    victim(unsigned set, const ReplContext &ctx, std::uint64_t exclude)
    {
        return wrapper.victimWith(base, set, ctx, exclude);
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx)
    {
        wrapper.onFillWith(base, set, way, ctx);
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx)
    {
        wrapper.onHitWith(base, set, way, ctx);
    }

    void
    onEvict(unsigned set, unsigned way)
    {
        wrapper.onEvictWith(base, set, way);
    }
};

} // namespace casim

#endif // CASIM_CORE_SHARING_AWARE_HH
