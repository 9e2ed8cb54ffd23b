/**
 * @file
 * Implementation of the LRU recency stamps (the per-access hooks are
 * inline in lru.hh).
 */

#include "mem/repl/lru.hh"

namespace casim {

LruBase::LruBase(unsigned num_sets, unsigned num_ways)
    : ReplPolicy(num_sets, num_ways),
      stamp_(static_cast<std::size_t>(num_sets) * num_ways, 0),
      simdVictim_(simd::vectorTagScanEnabled() &&
                  num_ways % simd::kStampLanes == 0 && num_ways >= 4)
{
}

void
LruBase::onInvalidate(unsigned set, unsigned way)
{
    stamp_[flat(set, way)] = 0;
}

unsigned
LruBase::stackDepth(unsigned set, unsigned way) const
{
    unsigned depth = 0;
    const std::uint64_t mine = stamp_[flat(set, way)];
    for (unsigned other = 0; other < numWays(); ++other) {
        if (other != way && stamp_[flat(set, other)] > mine)
            ++depth;
    }
    return depth;
}

} // namespace casim
