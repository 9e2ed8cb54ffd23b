/**
 * @file
 * A set-associative cache tag store with pluggable replacement and
 * residency observation hooks.
 *
 * The same class backs the private L1s and the shared LLC of the
 * coherent hierarchy and the standalone LLC of stream replays.
 * Protocol state (MESI, the directory, the LLC residency record)
 * lives in Hierarchy beside the tags; replays that read block state
 * attach to the cache through CacheObserver.
 */

#ifndef CASIM_MEM_CACHE_HH
#define CASIM_MEM_CACHE_HH

#include <bit>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned_array.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/block.hh"
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
 * Observer of residency lifecycle events, used by the sharing study.
 *
 * Events refer to demand activity only; writebacks and directory
 * maintenance are invisible here.
 */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;

    /** A demand access hit `block`. */
    virtual void
    onHit(const CacheBlock &block, const ReplContext &ctx)
    {
        (void)block;
        (void)ctx;
    }

    /** A demand access missed. */
    virtual void onMiss(const ReplContext &ctx) { (void)ctx; }

    /** `block` was just installed by a fill. */
    virtual void
    onFill(const CacheBlock &block, const ReplContext &ctx)
    {
        (void)block;
        (void)ctx;
    }

    /**
     * `block`'s residency ended (replacement, external invalidation, or
     * the end-of-run flush).  The block still carries its full
     * residency instrumentation.
     */
    virtual void onResidencyEnd(const CacheBlock &block) { (void)block; }
};

/**
 * Set-associative cache with demand access / fill / invalidate ops.
 *
 * The per-way CacheBlock payload (residency instrumentation) is
 * optional: a cache starts lean, and hit/miss accounting, replacement
 * and the dirty-eviction count need only the lookup mirrors, so
 * accessWay(), fillWay(), invalidate(), the (set, way) accessors and
 * flushResidencies() work without it.  Everything that hands out or
 * reads a CacheBlock — access(), fill(), probe(), blockAt() and
 * observers — needs the payload and asserts it exists.
 */
class Cache
{
  public:
    /**
     * Called with the victim's (set, way) before a fill overwrites it.
     * The way is still resident while the handler runs, so tagAt(),
     * dirtyAt() and (with a payload) blockAt() describe the victim.
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

    /**
     * Allocate the per-way CacheBlock payload.  Only StreamSim asks for
     * it, when an attachment reads residencies; the coherent hierarchy
     * keeps its MESI state, directory and residency record in its own
     * dense (set, way) arrays.  Must be called while the cache is still
     * empty; idempotent.
     */
    void allocatePayload();

    /** True iff the CacheBlock payload is allocated. */
    bool hasPayload() const { return blocks_.data() != nullptr; }

    /**
     * Attach an observer for residency events (may be nullptr).  The
     * events carry blocks, so a non-null observer needs the payload.
     */
    void setObserver(CacheObserver *observer);

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

    /** True iff block_addr is resident.  Lean. */
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

    /** Dirty bit of the block at (set, way).  Lean. */
    bool
    dirtyAt(unsigned set, unsigned way) const
    {
        return (dirty_[set] >> way) & 1;
    }

    /**
     * Set the dirty bit of the resident block at (set, way), keeping
     * the payload's copy (if any) in sync.  Protocol code must use this
     * instead of writing a block's dirty field directly: the
     * replacement path counts dirty evictions from the bitmap alone.
     */
    void setDirtyAt(unsigned set, unsigned way, bool dirty);

    /** Bit `way` set iff that way of `set` holds a block.  Lean. */
    std::uint64_t validWays(unsigned set) const { return valid_[set]; }

    /**
     * Mutable lookup without any state change; nullptr on miss.  Needs
     * the payload.
     */
    CacheBlock *probe(Addr block_addr);

    /** Const lookup without any state change; nullptr on miss. */
    const CacheBlock *probe(Addr block_addr) const;

    /**
     * Perform a demand access.  On a hit the replacement state (and,
     * with a payload, the residency instrumentation) is updated; on a
     * miss the caller is expected to fill.
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
     * accessWay() returning the hit block, or nullptr on a miss.
     * Needs the payload.
     */
    CacheBlock *access(const ReplContext &ctx);

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

    /** fillWay() returning the installed block.  Needs the payload. */
    CacheBlock &fill(const ReplContext &ctx,
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
     * End all outstanding residencies, reporting each to the observer.
     * Called once at the end of a simulation so residency-attributed
     * statistics cover every block.
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

    /**
     * Block slot at (set, way); exposed for protocol code and tests.
     * Needs the payload (asserted in paranoid builds; the callers on
     * hot paths have already checked it).
     */
    CacheBlock &
    blockAt(unsigned set, unsigned way)
    {
        paranoidCheckPayload();
        return blocks_[static_cast<std::size_t>(set) * geo_.ways + way];
    }

    const CacheBlock &
    blockAt(unsigned set, unsigned way) const
    {
        paranoidCheckPayload();
        return blocks_[static_cast<std::size_t>(set) * geo_.ways + way];
    }

  private:
    /** End the residency at (set, way): notify, count, clear. */
    void endResidency(unsigned set, unsigned way, bool external);

    /** Panic unless the payload exists (release builds: a no-op). */
    void
    paranoidCheckPayload() const
    {
#ifdef CASIM_PARANOID
        requirePayload();
#endif
    }

    /** Panic unless the payload exists. */
    void requirePayload() const;

    /**
     * Verify one set's lookup arrays: pad lanes and empty ways hold
     * simd::kTagInvalid, dirty ways are valid, and (with a payload) the
     * mirrors agree with the payload blocks.  Compiled away unless CASIM_PARANOID is
     * defined.
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
     * Lookup-critical tag state, split out of CacheBlock so findWay
     * scans contiguous memory: tags_[set * tagStride_ + way] holds the
     * 32-bit block number of blocks_[...].addr (see tagOf), and bit
     * `way` of valid_[set] mirrors blocks_[...].valid.  Rows are
     * padded to tagStride_ = simd::tagRowStride(ways) so the vector
     * kernels always load full lanes, and the array is line-aligned,
     * so a row of up to 16 ways occupies one host cache line; pad
     * slots and empty ways hold simd::kTagInvalid.  These mirrors are
     * the authoritative tag state: a lean cache has no blocks_ at all,
     * and a payload cache touches the instrumentation-heavy CacheBlock
     * array only on hits, fills and evictions.
     */
    AlignedArray<std::uint32_t, 64> tags_;
    std::vector<std::uint64_t> valid_;

    /**
     * Bit `way` of dirty_[set] mirrors blocks_[...].dirty.  Kept so
     * the replacement path can count dirty evictions without loading
     * the victim's (cold, cache-missing) CacheBlock line — with no
     * observer attached, eviction then touches the victim line with
     * stores only, which never stall the pipeline the way the load
     * did.  It is also the only dirty state of a lean cache.  All
     * dirty-flag writers must go through fillWay() or setDirtyAt() to
     * keep the mirror in sync (paranoid builds assert it).
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

    /** The optional payload, one line-aligned block per (set, way). */
    AlignedArray<CacheBlock> blocks_;
    CacheObserver *observer_ = nullptr;

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
        if (observer_ != nullptr)
            observer_->onMiss(ctx);
        return way;
    }

    ++hits_;
    if (ctx.isWrite)
        ++writeHits_;
    policy.onHit(set, way, ctx);
    // A lean hit touches only the tag row and the policy state; the
    // instrumentation read-modify-write below is the payload's cost.
    if (hasPayload()) {
        CacheBlock &block = blockAt(set, way);
        block.touchedMask |= 1ULL << ctx.core;
        block.writtenDuringResidency |= ctx.isWrite;
        ++block.hitsDuringResidency;
        if (observer_ != nullptr)
            observer_->onHit(block, ctx);
    }
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
        // The victim's payload line is about to be overwritten and is
        // usually cache-cold; start its ownership request now so the
        // install stores below don't back up the store buffer waiting
        // for it.
        if (hasPayload())
            __builtin_prefetch(&blockAt(set, way), 1);
        ++evictions_;
        if ((dirty_[set] >> way) & 1)
            ++dirtyEvictions_;
        policy.onEvict(set, way);
        if (on_victim)
            on_victim(set, way);
        // Only an observer can see the ended residency; otherwise the
        // install below overwrites every block field and every per-set
        // mirror, so endResidency's clearing stores would be dead.
        if (observer_ != nullptr)
            endResidency(set, way, false);
    }

    if (hasPayload()) {
        // Compose the installed state in a stack temporary and copy it
        // over in one memcpy instead of 13 field writes: the compiler
        // emits a few wide vector stores, which matters because the
        // victim line is usually cache-cold and a dozen narrow stores
        // to it would occupy store-buffer entries for the whole
        // ownership miss.
        const CacheBlock installed{
            .addr = ctx.blockAddr,
            .touchedMask = 1ULL << ctx.core,
            .hitsDuringResidency = 0,
            .fillSeq = ctx.seq,
            .fillPC = ctx.pc,
            .valid = true,
            .dirty = ctx.isWrite,
            .writtenDuringResidency = ctx.isWrite,
            .fillCore = ctx.core,
            .predictedShared = ctx.predictedShared,
            .prefetched = false,
        };
        std::memcpy(&blockAt(set, way), &installed, sizeof(installed));
    }
    tags_[tagSlot(set, way)] = tag;
    valid_[set] |= 1ULL << way;
    if (ctx.isWrite)
        dirty_[set] |= 1ULL << way;
    else
        dirty_[set] &= ~(1ULL << way);
    ++fills_;
    policy.onFill(set, way, ctx);
    if (observer_ != nullptr)
        observer_->onFill(blockAt(set, way), ctx);
    return way;
}

} // namespace casim

#endif // CASIM_MEM_CACHE_HH
