/**
 * @file
 * Implementation of the set-associative cache tag store.
 */

#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <ios>
#include <memory>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace casim {

unsigned
CacheGeometry::numSets() const
{
    return static_cast<unsigned>(sizeBytes / (static_cast<std::uint64_t>(
                                     ways) * blockBytes));
}

void
CacheGeometry::check() const
{
    if (!isPowerOf2(blockBytes))
        casim_fatal("block size ", blockBytes, " is not a power of two");
    if (ways == 0 || ways > 64)
        casim_fatal("associativity ", ways, " out of range [1, 64]");
    if (sizeBytes % (static_cast<std::uint64_t>(ways) * blockBytes) != 0)
        casim_fatal("cache size ", sizeBytes,
                    " not divisible by ways*block");
    if (!isPowerOf2(numSets()))
        casim_fatal("set count ", numSets(), " is not a power of two");
}

Cache::Cache(std::string name, const CacheGeometry &geo,
             std::unique_ptr<ReplPolicy> policy, CacheShard shard)
    : name_(std::move(name)), geo_(geo), shard_(shard),
      policy_(std::move(policy)),
      stats_(name_),
      hits_(stats_.addCounter("demand_hits", "demand accesses that hit")),
      misses_(stats_.addCounter("demand_misses",
                                "demand accesses that missed")),
      fills_(stats_.addCounter("fills", "blocks installed")),
      evictions_(stats_.addCounter("evictions",
                                   "blocks replaced by fills")),
      dirtyEvictions_(stats_.addCounter("dirty_evictions",
                                        "replaced blocks that were dirty")),
      extInvalidations_(stats_.addCounter(
          "ext_invalidations", "blocks removed by back-invalidation")),
      writeHits_(stats_.addCounter("write_hits", "demand store hits")),
      writeMisses_(stats_.addCounter("write_misses",
                                     "demand store misses"))
{
    geo_.check();
    casim_assert(policy_ != nullptr, "cache needs a replacement policy");
    casim_assert(policy_->numSets() == geo_.numSets() &&
                     policy_->numWays() == geo_.ways,
                 "policy geometry mismatch for cache ", name_);
    casim_assert(shard_.bits < 32 &&
                     shard_.index < (1u << shard_.bits),
                 "bad cache shard {", shard_.bits, ", ", shard_.index,
                 "} for cache ", name_);
    // A shard owns every global set whose low `bits` index bits equal
    // its index, so the local set index is the global one with those
    // bits shifted off — fold the shift into the block offset shift.
    blockShift_ = floorLog2(geo_.blockBytes);
    setShift_ = blockShift_ + shard_.bits;
    setMask_ = geo_.numSets() - 1;
    tagStride_ = simd::tagRowStride(geo_.ways);
    simdActive_ = simd::vectorTagScanEnabled();
    const std::size_t slots =
        static_cast<std::size_t>(geo_.numSets()) * tagStride_;
    tags_ = AlignedArray<std::uint32_t, 64>(slots);
    std::fill_n(tags_.data(), slots, simd::kTagInvalid);
    valid_.assign(geo_.numSets(), 0);
    dirty_.assign(geo_.numSets(), 0);
}

void
Cache::paranoidCheckSet([[maybe_unused]] unsigned set) const
{
#ifdef CASIM_PARANOID
    for (unsigned pad = geo_.ways; pad < tagStride_; ++pad)
        casim_assert(tags_[tagSlot(set, pad)] == simd::kTagInvalid,
                     "tag-row pad lane clobbered in ", name_, " set ",
                     set, " lane ", pad);
    for (unsigned way = 0; way < geo_.ways; ++way)
        casim_assert(((valid_[set] >> way) & 1) ||
                         tags_[tagSlot(set, way)] == simd::kTagInvalid,
                     "empty way keeps a stale tag in ", name_, " set ",
                     set, " way ", way);
    casim_assert((dirty_[set] & ~valid_[set]) == 0,
                 "dirty bitmap marks an invalid way in ", name_, " set ",
                 set);
#endif
}

void
Cache::paranoidCheckRoute([[maybe_unused]] Addr block_addr) const
{
#ifdef CASIM_PARANOID
    if (shard_.bits == 0)
        return;
    const unsigned low = static_cast<unsigned>(
        (block_addr >> floorLog2(geo_.blockBytes)) &
        ((1u << shard_.bits) - 1));
    casim_assert(low == shard_.index, "address ", block_addr,
                 " routed to wrong shard ", shard_.index, " of cache ",
                 name_);
#endif
}

void
Cache::tagRangeFatal(Addr block_addr) const
{
    casim_fatal("cache ", name_, ": block address 0x", std::hex,
                block_addr, std::dec, " is beyond the 32-bit block-number ",
                "range of the tag store (block numbers must be below ",
                "0xffffffff)");
}

unsigned
Cache::accessWay(const ReplContext &ctx)
{
    return accessWayWith(*policy_, ctx);
}

unsigned
Cache::fillWay(const ReplContext &ctx, const VictimHandler &on_victim)
{
    return fillWayWith(*policy_, ctx, on_victim);
}

void
Cache::setDirtyAt(unsigned set, unsigned way, bool dirty)
{
    casim_assert((valid_[set] >> way) & 1,
                 "setDirtyAt on an empty way of ", name_);
    if (dirty)
        dirty_[set] |= 1ULL << way;
    else
        dirty_[set] &= ~(1ULL << way);
}

bool
Cache::invalidate(Addr block_addr)
{
    const unsigned set = setIndex(block_addr);
    const unsigned way = findWay(set, block_addr);
    if (way == geo_.ways)
        return false;
    invalidateWay(set, way);
    return true;
}

void
Cache::invalidateWay(unsigned set, unsigned way)
{
    policy_->onInvalidate(set, way);
    if (((valid_[set] >> way) & 1) == 0)
        return;
    ++extInvalidations_;
    tags_[tagSlot(set, way)] = simd::kTagInvalid;
    valid_[set] &= ~(1ULL << way);
    dirty_[set] &= ~(1ULL << way);
}

void
Cache::flushResidencies()
{
    for (unsigned set = 0; set < geo_.numSets(); ++set)
        paranoidCheckSet(set);
    std::fill_n(tags_.data(), tagSlot(geo_.numSets(), 0),
                simd::kTagInvalid);
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

std::size_t
Cache::validBlocks() const
{
    std::size_t count = 0;
    for (const std::uint64_t mask : valid_)
        count += popCount(mask);
    return count;
}

} // namespace casim
