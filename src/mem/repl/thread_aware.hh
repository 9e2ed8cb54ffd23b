/**
 * @file
 * Thread-aware insertion policies: TADIP-F and TA-DRRIP
 * (Jaleel et al., PACT 2008; ISCA 2010).  These are the strongest of
 * the "recent proposals" for shared caches running multi-threaded
 * workloads that the paper characterizes: each hardware thread gets
 * its own insertion-policy selector, trained by per-thread leader
 * sets, so a thrashing thread can be switched to bimodal insertion
 * without punishing its well-behaved siblings.
 */

#ifndef CASIM_MEM_REPL_THREAD_AWARE_HH
#define CASIM_MEM_REPL_THREAD_AWARE_HH

#include "common/rng.hh"
#include "common/types.hh"
#include "mem/repl/duel.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/rrip.hh"

namespace casim {

/**
 * TADIP-F: thread-aware dynamic insertion on LRU's recency stamps.  A
 * thread whose duel favours BIP inserts at the LRU end except for 1
 * fill in 32.
 */
class TadipPolicy final : public LruBase
{
  public:
    TadipPolicy(unsigned num_sets, unsigned num_ways,
                unsigned num_threads = kMaxCores,
                std::uint64_t seed = 0x7ad1b)
        : LruBase(num_sets, num_ways), duel_(num_sets, num_threads),
          rng_(seed)
    {
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        if (duel_.useBimodal(set, ctx.core) && rng_.below(32) != 0)
            insertLru(set, way);
        else
            insertMru(set, way);
    }

    std::string name() const override { return "tadip"; }

    /** Per-thread selector (exposed for tests). */
    const ThreadDuel &duel() const { return duel_; }

  private:
    ThreadDuel duel_;
    Rng rng_;
};

/** TA-DRRIP: thread-aware dynamic RRIP. */
class TaDrripPolicy final : public RripBase
{
  public:
    TaDrripPolicy(unsigned num_sets, unsigned num_ways,
                  unsigned num_threads = kMaxCores,
                  unsigned rrpv_bits = 2, std::uint64_t seed = 0x7add)
        : RripBase(num_sets, num_ways, rrpv_bits),
          duel_(num_sets, num_threads), rng_(seed)
    {
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        // Bimodal insertion for a thrashing thread, SRRIP otherwise.
        insertAt(set, way, duel_.useBimodal(set, ctx.core)
                               ? bimodalRrpv(rng_)
                               : maxRrpv() - 1);
    }

    std::string name() const override { return "tadrrip"; }

    /** Per-thread selector (exposed for tests). */
    const ThreadDuel &duel() const { return duel_; }

  private:
    ThreadDuel duel_;
    Rng rng_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_THREAD_AWARE_HH
