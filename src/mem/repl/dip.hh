/**
 * @file
 * Dynamic insertion policy, DIP (Qureshi et al., ISCA 2007), on LRU's
 * recency stamps.
 */

#ifndef CASIM_MEM_REPL_DIP_HH
#define CASIM_MEM_REPL_DIP_HH

#include "common/rng.hh"
#include "mem/repl/duel.hh"
#include "mem/repl/lru.hh"

namespace casim {

/**
 * Set-dueling between LRU insertion (every fill at MRU) and BIP, which
 * inserts at the LRU end except for 1 fill in 32.
 */
class DipPolicy final : public LruBase
{
  public:
    DipPolicy(unsigned num_sets, unsigned num_ways,
              std::uint64_t seed = 0xd1bee)
        : LruBase(num_sets, num_ways), duel_(num_sets), rng_(seed)
    {
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        if (duel_.useBimodal(set) && rng_.below(32) != 0)
            insertLru(set, way);
        else
            insertMru(set, way);
    }

    std::string name() const override { return "dip"; }

    /** The LRU-vs-BIP duel (exposed for tests). */
    const SetDuel &duel() const { return duel_; }

  private:
    SetDuel duel_;
    Rng rng_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_DIP_HH
