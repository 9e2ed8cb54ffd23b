/**
 * @file
 * Implementation of the sharing-aware victim filter (the per-access
 * hooks are inline in sharing_aware.hh).
 */

#include "core/sharing_aware.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace casim {

SharingAwareWrapper::SharingAwareWrapper(std::unique_ptr<ReplPolicy> base,
                                         unsigned pre_rounds,
                                         unsigned post_rounds,
                                         double quota, bool dueling,
                                         bool demote_private)
    : ReplPolicy(base->numSets(), base->numWays()),
      base_(std::move(base)), preRounds_(pre_rounds),
      postRounds_(post_rounds != 0
                      ? post_rounds
                      : std::max(1u, pre_rounds / 4)),
      maxProtected_(std::max(
          1u, static_cast<unsigned>(quota * numWays() + 0.5))),
      dueling_(dueling), demotePrivate_(demote_private),
      roles_(numSets(), Role::Follower),
      sets_(numSets()),
      fillCore_(static_cast<std::size_t>(numSets()) * numWays(), 0),
      expiry_(static_cast<std::size_t>(numSets()) * numWays(), 0)
{
    casim_assert(preRounds_ >= 1, "protection needs at least one round");
    casim_assert(quota > 0.0 && quota <= 1.0,
                 "protection quota must be in (0, 1]");
    if (dueling_) {
        // Pick the leader sets by a hash of the set index rather than
        // a fixed stride: strided leaders can alias with the regular
        // region layouts of array codes (e.g. a hot Zipf head that
        // occupies the low sets), and a biased leader sample makes the
        // PSEL mispredict what protection does to the followers.
        const unsigned leaders_per_policy =
            numSets() >= 256 ? 64
                             : std::max(1u, numSets() / 4);
        const unsigned total_leaders =
            std::min(numSets(), 2 * leaders_per_policy);
        // Each set is hashed once; mix64 is a bijection, so the keys
        // are distinct and the order is fully determined.
        std::vector<std::pair<std::uint64_t, unsigned>> order(numSets());
        for (unsigned set = 0; set < numSets(); ++set)
            order[set] = {mix64(set ^ 0x5a5a), set};
        std::sort(order.begin(), order.end());
        for (unsigned k = 0; k < total_leaders; ++k) {
            roles_[order[k].second] =
                (k % 2 == 0) ? Role::OnLeader : Role::OffLeader;
        }
    }
}

void
SharingAwareWrapper::onInvalidate(unsigned set, unsigned way)
{
    base_->onInvalidate(set, way);
    clearWay(set, way);
}

std::string
SharingAwareWrapper::name() const
{
    return "sa+" + base_->name();
}

} // namespace casim
