/**
 * @file
 * Implementation of true-LRU replacement (the per-access hooks are
 * inline in lru.hh).
 */

#include "mem/repl/lru.hh"

namespace casim {

LruPolicy::LruPolicy(unsigned num_sets, unsigned num_ways)
    : ReplPolicy(num_sets, num_ways),
      stamp_(static_cast<std::size_t>(num_sets) * num_ways, 0),
      simdVictim_(simd::vectorTagScanEnabled() &&
                  num_ways % simd::kStampLanes == 0 && num_ways >= 4)
{
}

void
LruPolicy::onInvalidate(unsigned set, unsigned way)
{
    stamp_[flat(set, way)] = 0;
}

unsigned
LruPolicy::stackDepth(unsigned set, unsigned way) const
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
