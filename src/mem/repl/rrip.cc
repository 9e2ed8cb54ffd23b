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

BrripPolicy::BrripPolicy(unsigned num_sets, unsigned num_ways,
                         unsigned rrpv_bits, std::uint64_t seed)
    : RripBase(num_sets, num_ways, rrpv_bits), rng_(seed)
{
}

DrripPolicy::DrripPolicy(unsigned num_sets, unsigned num_ways,
                         unsigned rrpv_bits, std::uint64_t seed)
    : RripBase(num_sets, num_ways, rrpv_bits),
      roles_(num_sets, Role::Follower), rng_(seed)
{
    // Spread the two leader groups evenly over the sets.  Large caches
    // get 32 leaders of each flavour; tiny test caches degrade to one
    // leader of each.
    const unsigned leaders_per_policy =
        num_sets >= 64 ? 32 : std::max(1u, num_sets / 2);
    const unsigned stride =
        std::max(1u, num_sets / (2 * leaders_per_policy));
    unsigned assigned = 0;
    for (unsigned set = 0;
         set < num_sets && assigned < 2 * leaders_per_policy;
         set += stride, ++assigned) {
        roles_[set] =
            (assigned % 2 == 0) ? Role::SrripLeader : Role::BrripLeader;
    }
}

} // namespace casim
