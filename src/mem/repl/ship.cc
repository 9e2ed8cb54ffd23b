/**
 * @file
 * Implementation of SHiP-PC (the per-access hooks are inline in
 * ship.hh).
 */

#include "mem/repl/ship.hh"

#include "common/logging.hh"

namespace casim {

ShipPolicy::ShipPolicy(unsigned num_sets, unsigned num_ways,
                       unsigned rrpv_bits, unsigned sig_bits,
                       unsigned ctr_bits)
    : RripBase(num_sets, num_ways, rrpv_bits),
      sigMask_((1u << sig_bits) - 1),
      ctrMax_(static_cast<std::uint8_t>((1u << ctr_bits) - 1)),
      shct_(std::size_t{1} << sig_bits, 1),
      waySig_(static_cast<std::size_t>(num_sets) * num_ways, 0),
      wayOutcome_(static_cast<std::size_t>(num_sets) * num_ways, 0),
      wayLive_(static_cast<std::size_t>(num_sets) * num_ways, 0)
{
    casim_assert(sig_bits >= 4 && sig_bits <= 20,
                 "unreasonable SHCT size 2^", sig_bits);
}

void
ShipPolicy::onInvalidate(unsigned set, unsigned way)
{
    learnEviction(set, way);
    RripBase::onInvalidate(set, way);
}

} // namespace casim
