/**
 * @file
 * A set-associative cache tag store with pluggable replacement.
 *
 * The same class backs the private L1s and the shared LLC of the
 * coherent hierarchy and the standalone LLC of stream replays.  It
 * holds tags, valid and dirty bits and the policy, nothing else:
 * protocol state (MESI, the directory, the LLC residency record)
 * lives in Hierarchy beside the tags, and a replay's residency record
 * lives in StreamSim, both indexed by (set, way).
 */

#ifndef CASIM_MEM_CACHE_HH
#define CASIM_MEM_CACHE_HH

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned_array.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/repl/policy.hh"

namespace casim {

/** Geometry of a set-associative cache. */
struct CacheGeometry
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 4 * 1024 * 1024;

    /** Associativity. */
    unsigned ways = 16;

    /** Line size in bytes (power of two). */
    unsigned blockBytes = kBlockBytes;

    /** Number of sets implied by the fields above. */
    unsigned numSets() const;

    /** Validate and die with a helpful message on bad geometry. */
    void check() const;
};

/**
 * Identifies one set shard of a larger cache.
 *
 * The sharded replay engine partitions a K-way-larger cache's sets by
 * their low log2(K) set-index bits: shard `index` owns every global set
 * whose low bits equal `index`, and a shard-local Cache (built with
 * 1/K of the global capacity) maps a block address to local set
 * `globalSet >> bits`.  Selecting by the LOW bits is what makes this
 * work with a plain shift: dropping them leaves the HIGH set bits,
 * which are exactly the local set index.  The default {0, 0} is an
 * unsharded cache.
 */
struct CacheShard
{
    /** log2 of the shard count (0 = unsharded). */
    unsigned bits = 0;

    /** This shard's index in [0, 2^bits). */
    unsigned index = 0;
};

/**
 * Set-associative tag store with demand access / fill / invalidate
 * ops.  Callers that keep per-way state beside the tags (the
 * hierarchy's protocol record, StreamSim's residency record) index it
 * by the (set, way) that accessWay() and fillWay() return and that
 * the victim handler names.
 */
class Cache
{
  public:
    /**
     * Called with the victim's (set, way) before a fill overwrites it.
     * The way is still resident while the handler runs, so tagAt()
     * and dirtyAt() describe the victim.
     * The handler must not fill, invalidate or re-dirty ways of this
     * cache's victim set; other caches are fair game.
     */
    using VictimHandler = std::function<void(unsigned set, unsigned way)>;

    /**
     * @param name   Instance name used as the stats prefix (e.g. "llc").
     * @param geo    Cache geometry; validated here.  With a non-trivial
     *               `shard` this is the shard-LOCAL geometry (1/2^bits
     *               of the global capacity, same ways and block size).
     * @param policy Replacement policy sized for this geometry.
     * @param shard  Set shard this instance implements; {0, 0} (the
     *               default) indexes the full set range.
     */
    Cache(std::string name, const CacheGeometry &geo,
          std::unique_ptr<ReplPolicy> policy, CacheShard shard = {});

    /** Set index for a block-aligned address. */
    unsigned
    setIndex(Addr block_addr) const
    {
        return static_cast<unsigned>((block_addr >> setShift_) & setMask_);
    }

    /**
     * The 32-bit tag of block_addr: its block number, or
     * simd::kTagInvalid when the block number does not fit below it.
     * No resident block carries kTagInvalid (fills refuse such
     * addresses), so probing with it always misses: an address beyond
     * the 32-bit block-number range can never alias a resident tag.
     */
    std::uint32_t
    tagOf(Addr block_addr) const
    {
        const Addr number = block_addr >> blockShift_;
        return number < simd::kTagInvalid
                   ? static_cast<std::uint32_t>(number)
                   : simd::kTagInvalid;
    }

    /** Way of block_addr within `set`, or geometry().ways if absent. */
    unsigned
    findWay(unsigned set, Addr block_addr) const
    {
        const std::uint32_t *row = &tags_[tagSlot(set, 0)];
        const std::uint64_t live = valid_[set];
        const std::uint32_t probe = tagOf(block_addr);
        const unsigned way =
            simdActive_
                ? simd::findTagVector(row, tagStride_, live, probe)
                : simd::findTagScalar(row, live, probe);
#ifdef CASIM_PARANOID
        // The scalar scan is the reference semantics; every vector
        // lookup must agree with it way for way.
        casim_assert(way == simd::findTagScalar(row, live, probe),
                     "SIMD tag scan (", simd::tagScanIsa(),
                     ") disagrees with the scalar scan in ", name_,
                     " set ", set);
#endif
        return way == simd::kNoWay ? geo_.ways : way;
    }

    /** True iff block_addr is resident; changes no state. */
    bool
    contains(Addr block_addr) const
    {
        return findWay(setIndex(block_addr), block_addr) != geo_.ways;
    }

    /** Block held at (set, way), or kAddrInvalid if the way is empty. */
    Addr
    tagAt(unsigned set, unsigned way) const
    {
        const std::uint32_t tag = tags_[tagSlot(set, way)];
        return tag == simd::kTagInvalid ? kAddrInvalid
                                        : Addr{tag} << blockShift_;
    }

    /** Dirty bit of the block at (set, way). */
    bool
    dirtyAt(unsigned set, unsigned way) const
    {
        return (dirty_[set] >> way) & 1;
    }

    /**
     * Set the dirty bit of the resident block at (set, way); the
     * replacement path counts dirty evictions from these bits.
     */
    void setDirtyAt(unsigned set, unsigned way, bool dirty);

    /** Bit `way` set iff that way of `set` holds a block. */
    std::uint64_t validWays(unsigned set) const { return valid_[set]; }

    /**
     * Perform a demand access.  On a hit the replacement state is
     * updated; on a miss the caller is expected to fill.
     *
     * @return The hit way, or geometry().ways on a miss.
     */
    unsigned accessWay(const ReplContext &ctx);

    /**
     * accessWay() with the policy's concrete type known.  `policy` must
     * be this cache's own policy(), seen as its dynamic type — what
     * visitPolicy() hands a replay loop — so that a final policy's
     * hooks are direct calls the compiler can inline.  With Policy =
     * ReplPolicy this is accessWay() itself.
     */
    template <typename Policy>
    unsigned accessWayWith(Policy &policy, const ReplContext &ctx);

    /**
     * Install the block described by ctx, evicting an existing block if
     * the set is full.  The victim handler (if any) runs before the
     * overwrite so the caller can write back or back-invalidate.
     *
     * @return The way the block was installed in.
     */
    unsigned fillWay(const ReplContext &ctx,
                     const VictimHandler &on_victim = nullptr);

    /** fillWay() with the policy's concrete type known (see accessWayWith). */
    template <typename Policy>
    unsigned fillWayWith(Policy &policy, const ReplContext &ctx,
                         const VictimHandler &on_victim = nullptr);

    /**
     * Externally remove a block (coherence back-invalidation).  No-op
     * if the block is absent.
     *
     * @return True iff the block was present and removed.
     */
    bool invalidate(Addr block_addr);

    /** invalidate() of the resident block at a known (set, way). */
    void invalidateWay(unsigned set, unsigned way);

    /**
     * Empty every way, counting nothing: the end of a simulation,
     * after the caller has reported the residencies it tracks.
     */
    void flushResidencies();

    /** Number of currently valid blocks. */
    std::size_t validBlocks() const;

    /** Instance name. */
    const std::string &name() const { return name_; }

    /** Geometry. */
    const CacheGeometry &geometry() const { return geo_; }

    /** The replacement policy (for tests and wrappers). */
    ReplPolicy &policy() { return *policy_; }
    const ReplPolicy &policy() const { return *policy_; }

    /** Statistics group (hits, misses, fills, evictions, ...). */
    stats::StatGroup &stats() { return stats_; }
    const stats::StatGroup &stats() const { return stats_; }

    /** Demand hits so far. */
    std::uint64_t demandHits() const { return hits_.value(); }

    /** Demand misses so far. */
    std::uint64_t demandMisses() const { return misses_.value(); }

    /** Demand accesses so far. */
    std::uint64_t
    demandAccesses() const
    {
        return hits_.value() + misses_.value();
    }

  private:
    /**
     * Verify one set's tag state: pad lanes and empty ways hold
     * simd::kTagInvalid and dirty ways are valid.  Compiled away
     * unless CASIM_PARANOID is defined.
     */
    void paranoidCheckSet(unsigned set) const;

    /** Panic if `block_addr` does not route to this shard. */
    void paranoidCheckRoute(Addr block_addr) const;

    /** Exit with a diagnostic for a fill beyond the tag range. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    tagRangeFatal(Addr block_addr) const;

    /** Bitmask with one bit set per way of a set. */
    std::uint64_t
    fullWayMask() const
    {
        return geo_.ways >= 64 ? ~0ULL : (1ULL << geo_.ways) - 1;
    }

    std::string name_;
    CacheGeometry geo_;
    CacheShard shard_;
    unsigned blockShift_;
    unsigned setShift_;
    unsigned setMask_;
    std::unique_ptr<ReplPolicy> policy_;

    /**
     * The tag state, laid out so findWay scans contiguous memory:
     * tags_[set * tagStride_ + way] holds the 32-bit block number of
     * the block at (set, way) (see tagOf), and bit `way` of
     * valid_[set] says whether the way holds one.  Rows are padded to
     * tagStride_ = simd::tagRowStride(ways) so the vector kernels
     * always load full lanes, and the array is line-aligned, so a row
     * of up to 16 ways occupies one host cache line; pad slots and
     * empty ways hold simd::kTagInvalid.
     */
    AlignedArray<std::uint32_t, 64> tags_;
    std::vector<std::uint64_t> valid_;

    /**
     * Bit `way` of dirty_[set] is the dirty bit of (set, way).  Only
     * fillWay() and setDirtyAt() write it, and paranoid builds assert
     * that no empty way is dirty.
     */
    std::vector<std::uint64_t> dirty_;

    /** Tag slots per padded tag row (see tags_). */
    unsigned tagStride_;

    /** Flat tags_/valid_-aligned index of (set, way). */
    std::size_t
    tagSlot(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * tagStride_ + way;
    }

    /**
     * Whether findWay uses the vector kernel; resolved once at
     * construction from the compiled ISA, the CPU, and CASIM_NO_SIMD.
     */
    bool simdActive_;

    stats::StatGroup stats_;
    stats::Counter &hits_;
    stats::Counter &misses_;
    stats::Counter &fills_;
    stats::Counter &evictions_;
    stats::Counter &dirtyEvictions_;
    stats::Counter &extInvalidations_;
    stats::Counter &writeHits_;
    stats::Counter &writeMisses_;
};

template <typename Policy>
[[gnu::always_inline]] inline unsigned
Cache::accessWayWith(Policy &policy, const ReplContext &ctx)
{
#ifdef CASIM_PARANOID
    paranoidCheckRoute(ctx.blockAddr);
#endif
    const unsigned set = setIndex(ctx.blockAddr);
    const unsigned way = findWay(set, ctx.blockAddr);
    if (way == geo_.ways) {
        ++misses_;
        if (ctx.isWrite)
            ++writeMisses_;
        return way;
    }

    ++hits_;
    if (ctx.isWrite)
        ++writeHits_;
    policy.onHit(set, way, ctx);
    return way;
}

template <typename Policy>
[[gnu::always_inline]] inline unsigned
Cache::fillWayWith(Policy &policy, const ReplContext &ctx,
                   const VictimHandler &on_victim)
{
    const unsigned set = setIndex(ctx.blockAddr);
#ifdef CASIM_PARANOID
    paranoidCheckRoute(ctx.blockAddr);
    // A full-set scan per fill is too expensive for release replays;
    // paranoid builds keep it to catch double fills.
    casim_assert(findWay(set, ctx.blockAddr) == geo_.ways,
                 "fill of already-resident block in ", name_);
    paranoidCheckSet(set);
#endif

    const std::uint32_t tag = tagOf(ctx.blockAddr);
    if (tag == simd::kTagInvalid) [[unlikely]]
        tagRangeFatal(ctx.blockAddr);

    // Prefer an invalid way; otherwise consult the policy.
    const std::uint64_t free_ways = ~valid_[set] & fullWayMask();
    unsigned way;
    if (free_ways != 0) {
        way = static_cast<unsigned>(std::countr_zero(free_ways));
    } else {
        way = policy.victim(set, ctx, 0);
        casim_assert(way < geo_.ways, "policy returned bad way");
        ++evictions_;
        if ((dirty_[set] >> way) & 1)
            ++dirtyEvictions_;
        policy.onEvict(set, way);
        if (on_victim)
            on_victim(set, way);
    }

    tags_[tagSlot(set, way)] = tag;
    valid_[set] |= 1ULL << way;
    if (ctx.isWrite)
        dirty_[set] |= 1ULL << way;
    else
        dirty_[set] &= ~(1ULL << way);
    ++fills_;
    policy.onFill(set, way, ctx);
    return way;
}

} // namespace casim

#endif // CASIM_MEM_CACHE_HH
