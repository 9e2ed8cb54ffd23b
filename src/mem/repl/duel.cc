/**
 * @file
 * Leader-set layouts of the set-dueling selectors.
 */

#include "mem/repl/duel.hh"

#include <algorithm>

#include "common/types.hh"

namespace casim {

SetDuel::SetDuel(unsigned num_sets) : roles_(num_sets, DuelRole::Follower)
{
    const unsigned leaders_per_policy =
        num_sets >= 64 ? 32 : std::max(1u, num_sets / 2);
    const unsigned stride =
        std::max(1u, num_sets / (2 * leaders_per_policy));
    unsigned assigned = 0;
    for (unsigned set = 0;
         set < num_sets && assigned < 2 * leaders_per_policy;
         set += stride, ++assigned) {
        roles_[set] = (assigned % 2 == 0) ? DuelRole::BaseLeader
                                          : DuelRole::BimodalLeader;
    }
}

ThreadDuel::ThreadDuel(unsigned num_sets, unsigned num_threads)
    : ownerThread_(num_sets, -1), bimodalLeader_(num_sets, 0),
      psel_(num_threads)
{
    casim_assert(num_threads >= 1 && num_threads <= kMaxCores,
                 "bad thread count ", num_threads);
    // Interleave leader sets across threads: each thread receives an
    // equal share of base leaders and bimodal leaders, spread over the
    // index space.  With S sets and T threads we place up to S / 4
    // leaders total (leaving at least 3/4 followers).
    const unsigned total_leaders =
        std::max(2 * num_threads, std::min(num_sets / 4,
                                           64 * num_threads / 8));
    const unsigned stride = std::max(1u, num_sets / total_leaders);
    unsigned assigned = 0;
    for (unsigned set = 0; set < num_sets && assigned < total_leaders;
         set += stride, ++assigned) {
        ownerThread_[set] =
            static_cast<int>((assigned / 2) % num_threads);
        bimodalLeader_[set] = assigned % 2;
    }
}

} // namespace casim
