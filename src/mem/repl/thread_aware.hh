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

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mem/repl/dip.hh"
#include "mem/repl/rrip.hh"

namespace casim {

/**
 * Per-thread set-dueling machinery shared by TADIP-F and TA-DRRIP.
 *
 * Thread t owns two small groups of leader sets: in its "own" leaders
 * thread t uses the policy under test while all other threads follow
 * their current selector (the feedback arrangement of TADIP-F).
 */
class ThreadDuel
{
  public:
    /**
     * @param num_sets    Sets in the cache.
     * @param num_threads Hardware threads sharing the cache.
     */
    ThreadDuel(unsigned num_sets, unsigned num_threads);

    /** Leader role of `set` for thread `thread`. */
    enum class Role : std::uint8_t { Follower, BaseLeader, BimodalLeader };

    /** Role of `set` in thread `thread`'s duel. */
    Role
    role(unsigned set, unsigned thread) const
    {
        if (ownerThread_[set] < 0 ||
            static_cast<unsigned>(ownerThread_[set]) != thread)
            return Role::Follower;
        return bimodalLeader_[set] ? Role::BimodalLeader
                                   : Role::BaseLeader;
    }

    /**
     * Account a miss by `thread` in `set` and return true iff the
     * thread should use bimodal (thrash-resistant) insertion for this
     * fill.
     */
    bool
    useBimodal(unsigned set, unsigned thread)
    {
        casim_assert(thread < numThreads_, "thread id out of range");
        switch (role(set, thread)) {
          case Role::BaseLeader:
            if (psel_[thread] < kPselMax)
                ++psel_[thread];
            return false;
          case Role::BimodalLeader:
            if (psel_[thread] > 0)
                --psel_[thread];
            return true;
          case Role::Follower:
          default:
            return psel_[thread] >= (1u << (kPselBits - 1));
        }
    }

    /** Current PSEL of a thread (exposed for tests). */
    unsigned psel(unsigned thread) const { return psel_.at(thread); }

    /** Number of threads configured. */
    unsigned threads() const { return numThreads_; }

  private:
    static constexpr unsigned kPselBits = 10;
    static constexpr unsigned kPselMax = (1u << kPselBits) - 1;

    unsigned numSets_;
    unsigned numThreads_;
    /** owner_[set]: which thread's duel this set leads for, or -1. */
    std::vector<int> ownerThread_;
    /** bimodal_[set]: true if the set is a bimodal leader. */
    std::vector<std::uint8_t> bimodalLeader_;
    std::vector<unsigned> psel_;
};

/** TADIP-F: thread-aware dynamic insertion on an LRU base. */
class TadipPolicy : public InsertionLruBase
{
  public:
    TadipPolicy(unsigned num_sets, unsigned num_ways,
                unsigned num_threads = kMaxCores,
                std::uint64_t seed = 0x7ad1b);

    std::string name() const override { return "tadip"; }

    /** Per-thread selector (exposed for tests). */
    const ThreadDuel &duel() const { return duel_; }

  protected:
    bool insertAtMru(unsigned set, const ReplContext &ctx) override;

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
                  unsigned rrpv_bits = 2, std::uint64_t seed = 0x7add);

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
