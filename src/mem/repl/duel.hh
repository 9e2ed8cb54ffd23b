/**
 * @file
 * Set dueling (Qureshi et al., ISCA 2007): a few leader sets always use
 * one of two insertion policies, their misses vote in a saturating
 * policy selector (PSEL), and every other set follows the current
 * winner.  DIP and DRRIP run one duel per cache (SetDuel); TADIP-F and
 * TA-DRRIP give every thread its own (ThreadDuel).
 */

#ifndef CASIM_MEM_REPL_DUEL_HH
#define CASIM_MEM_REPL_DUEL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace casim {

/** Role of a set in a duel between a base and a bimodal insertion. */
enum class DuelRole : std::uint8_t { Follower, BaseLeader, BimodalLeader };

/** A 10-bit saturating policy selector, starting at its midpoint. */
class Psel
{
  public:
    /**
     * Account a miss in a set of role `role` and return true iff the
     * fill should use bimodal insertion.  A fill means the set missed:
     * leaders vote against their own policy, followers go bimodal once
     * PSEL reaches its midpoint.
     */
    bool
    vote(DuelRole role)
    {
        switch (role) {
          case DuelRole::BaseLeader:
            if (value_ < kMax)
                ++value_;
            return false;
          case DuelRole::BimodalLeader:
            if (value_ > 0)
                --value_;
            return true;
          case DuelRole::Follower:
          default:
            return value_ >= kMid;
        }
    }

    /** Current value (exposed for tests). */
    unsigned value() const { return value_; }

  private:
    static constexpr unsigned kBits = 10;
    static constexpr unsigned kMax = (1u << kBits) - 1;
    static constexpr unsigned kMid = 1u << (kBits - 1);

    unsigned value_ = kMid;
};

/**
 * One duel for the whole cache.  Base and bimodal leaders alternate,
 * spread evenly over the sets: 32 of each for 64 or more sets, fewer
 * for tiny test caches (at least one of each).
 */
class SetDuel
{
  public:
    explicit SetDuel(unsigned num_sets);

    /** Role assigned to a set. */
    DuelRole role(unsigned set) const { return roles_[set]; }

    /** Account a miss in `set`; true iff the fill goes bimodal. */
    bool useBimodal(unsigned set) { return psel_.vote(roles_[set]); }

    /** Current PSEL value (exposed for tests). */
    unsigned psel() const { return psel_.value(); }

  private:
    std::vector<DuelRole> roles_;
    Psel psel_;
};

/**
 * Per-thread duels.  Thread t owns two small groups of leader sets: in
 * its "own" leaders thread t uses the policy under test while all other
 * threads follow their current selector (the feedback arrangement of
 * TADIP-F).
 */
class ThreadDuel
{
  public:
    /**
     * @param num_sets    Sets in the cache.
     * @param num_threads Hardware threads sharing the cache.
     */
    ThreadDuel(unsigned num_sets, unsigned num_threads);

    /** Role of `set` in thread `thread`'s duel. */
    DuelRole
    role(unsigned set, unsigned thread) const
    {
        if (ownerThread_[set] < 0 ||
            static_cast<unsigned>(ownerThread_[set]) != thread)
            return DuelRole::Follower;
        return bimodalLeader_[set] ? DuelRole::BimodalLeader
                                   : DuelRole::BaseLeader;
    }

    /**
     * Account a miss by `thread` in `set` and return true iff the
     * thread should use bimodal (thrash-resistant) insertion for this
     * fill.
     */
    bool
    useBimodal(unsigned set, unsigned thread)
    {
        casim_assert(thread < psel_.size(), "thread id out of range");
        return psel_[thread].vote(role(set, thread));
    }

    /** Current PSEL of a thread (exposed for tests). */
    unsigned psel(unsigned thread) const { return psel_.at(thread).value(); }

  private:
    /** ownerThread_[set]: which thread's duel this set leads, or -1. */
    std::vector<int> ownerThread_;
    /** bimodalLeader_[set]: true if the set is a bimodal leader. */
    std::vector<std::uint8_t> bimodalLeader_;
    std::vector<Psel> psel_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_DUEL_HH
