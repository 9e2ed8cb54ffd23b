/**
 * @file
 * Implementation of NRU replacement (the per-access hooks are inline
 * in nru.hh).
 */

#include "mem/repl/nru.hh"

namespace casim {

NruPolicy::NruPolicy(unsigned num_sets, unsigned num_ways)
    : ReplPolicy(num_sets, num_ways),
      refBit_(static_cast<std::size_t>(num_sets) * num_ways, 0)
{
}

void
NruPolicy::onInvalidate(unsigned set, unsigned way)
{
    refBit_[flat(set, way)] = 0;
}

} // namespace casim
