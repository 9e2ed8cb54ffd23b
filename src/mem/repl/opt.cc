/**
 * @file
 * Implementation of Belady's optimal replacement (the per-access hooks
 * are inline in opt.hh).
 */

#include "mem/repl/opt.hh"

namespace casim {

OptPolicy::OptPolicy(unsigned num_sets, unsigned num_ways,
                     const NextUseIndex &index)
    : ReplPolicy(num_sets, num_ways), index_(index),
      nextUse_(static_cast<std::size_t>(num_sets) * num_ways, kSeqNever)
{
}

void
OptPolicy::onInvalidate(unsigned set, unsigned way)
{
    nextUse_[flat(set, way)] = kSeqNever;
}

} // namespace casim
