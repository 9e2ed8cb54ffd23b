/**
 * @file
 * Implementation of the thread-aware insertion policies.
 */

#include "mem/repl/thread_aware.hh"

#include "common/logging.hh"

namespace casim {

ThreadDuel::ThreadDuel(unsigned num_sets, unsigned num_threads)
    : numSets_(num_sets), numThreads_(num_threads),
      ownerThread_(num_sets, -1), bimodalLeader_(num_sets, 0),
      psel_(num_threads, 1u << (kPselBits - 1))
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

TadipPolicy::TadipPolicy(unsigned num_sets, unsigned num_ways,
                         unsigned num_threads, std::uint64_t seed)
    : InsertionLruBase(num_sets, num_ways),
      duel_(num_sets, num_threads), rng_(seed)
{
}

bool
TadipPolicy::insertAtMru(unsigned set, const ReplContext &ctx)
{
    if (duel_.useBimodal(set, ctx.core))
        return rng_.below(32) == 0; // BIP for this thread
    return true;                    // plain LRU insertion
}

TaDrripPolicy::TaDrripPolicy(unsigned num_sets, unsigned num_ways,
                             unsigned num_threads, unsigned rrpv_bits,
                             std::uint64_t seed)
    : RripBase(num_sets, num_ways, rrpv_bits),
      duel_(num_sets, num_threads), rng_(seed)
{
}

} // namespace casim
