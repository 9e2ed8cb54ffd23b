/**
 * @file
 * Implementation of the RRIP policy family (the per-access hooks are
 * inline in rrip.hh).
 */

#include "mem/repl/rrip.hh"

#include "common/logging.hh"

namespace casim {

RripBase::RripBase(unsigned num_sets, unsigned num_ways,
                   unsigned rrpv_bits)
    : ReplPolicy(num_sets, num_ways), maxRrpv_((1u << rrpv_bits) - 1),
      rrpv_(static_cast<std::size_t>(num_sets) * num_ways,
            static_cast<std::uint8_t>((1u << rrpv_bits) - 1))
{
    casim_assert(rrpv_bits >= 1 && rrpv_bits <= 8,
                 "unsupported RRPV width ", rrpv_bits);
}

void
RripBase::onInvalidate(unsigned set, unsigned way)
{
    rrpv_[flat(set, way)] = static_cast<std::uint8_t>(maxRrpv_);
}

} // namespace casim
