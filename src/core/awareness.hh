/**
 * @file
 * Eviction-time sharing-awareness scoring (Figure 6).
 *
 * Quantifies how "sharing-aware" a policy's eviction decisions are by
 * checking each victim against the oracle's future knowledge: evicting a
 * block that is about to be actively shared while the set still holds a
 * block with no future sharing (or no future use at all) is a
 * sharing-awareness mistake.
 */

#ifndef CASIM_CORE_AWARENESS_HH
#define CASIM_CORE_AWARENESS_HH

#include <cstdint>

#include "core/oracle.hh"
#include "mem/cache.hh"
#include "trace/next_use.hh"

namespace casim {

/** Scores the sharing-awareness of eviction decisions. */
class AwarenessScorer
{
  public:
    /**
     * @param index  Next-use index over the replayed stream.
     * @param window Future window defining "about to be shared".
     */
    AwarenessScorer(const NextUseIndex &index, SeqNo window)
        : index_(index), window_(window)
    {
    }

    /**
     * Score one replacement decision.  Must be called after the victim
     * was chosen but before the fill overwrites it.
     *
     * @param cache      The cache being simulated.
     * @param set        Set index of the replacement.
     * @param victim_way Way chosen by the policy.
     * @param residency  The set's residency records, indexed by way
     *                   (their touched masks are the past sharers).
     * @param now        Current stream position (the missing access).
     */
    void onEviction(const Cache &cache, unsigned set, unsigned victim_way,
                    const WayResidency *residency, SeqNo now);

    /** Replacements scored. */
    std::uint64_t evictions() const { return evictions_; }

    /** Victims that would have been shared within the window. */
    std::uint64_t sharedVictims() const { return sharedVictims_; }

    /**
     * Shared victims evicted while an unshared candidate existed — the
     * sharing-awareness mistakes.
     */
    std::uint64_t mistakes() const { return mistakes_; }

    /** Mistakes where the alternative candidate was fully dead. */
    std::uint64_t mistakesWithDead() const { return mistakesWithDead_; }

    /** mistakes() / evictions(), 0 when no evictions. */
    double mistakeRate() const;

    /** sharedVictims() / evictions(), 0 when no evictions. */
    double sharedVictimRate() const;

  private:
    const NextUseIndex &index_;
    SeqNo window_;
    std::uint64_t evictions_ = 0;
    std::uint64_t sharedVictims_ = 0;
    std::uint64_t mistakes_ = 0;
    std::uint64_t mistakesWithDead_ = 0;
};

} // namespace casim

#endif // CASIM_CORE_AWARENESS_HH
