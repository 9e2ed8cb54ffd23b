/**
 * @file
 * Implementation of the sharing-awareness scorer.
 */

#include "core/awareness.hh"

#include <bit>

namespace casim {

void
AwarenessScorer::onEviction(const Cache &cache, unsigned set,
                            unsigned victim_way,
                            const WayResidency *residency, SeqNo now)
{
    ++evictions_;
    const Addr victim = cache.tagAt(set, victim_way);
    // Every other resident way is a candidate, visited in way order.
    const std::uint64_t others =
        cache.validWays(set) & ~(std::uint64_t{1} << victim_way);
    // The victim query and every candidate query below probe the
    // index's block table, so prefetch all of those slots up front:
    // their misses overlap instead of serializing one per way.
    index_.prefetchBlock(victim);
    for (std::uint64_t live = others; live != 0; live &= live - 1)
        index_.prefetchBlock(
            cache.tagAt(set, static_cast<unsigned>(std::countr_zero(live))));
    // The victim's residency "would still be shared" if its future
    // window contains references and the residency's sharer set (past
    // touches plus future touches) spans at least two cores.  The
    // early-exit query stops scanning the reference list as soon as
    // the verdict is decided, instead of materializing the full mask.
    if (!index_.residencyStaysShared(victim, now, window_,
                                     residency[victim_way].touchedMask))
        return;
    ++sharedVictims_;

    bool unshared_candidate = false;
    bool dead_candidate = false;
    for (std::uint64_t live = others; live != 0; live &= live - 1) {
        const auto way = static_cast<unsigned>(std::countr_zero(live));
        bool other_has_future = false;
        if (!index_.residencyStaysShared(cache.tagAt(set, way), now,
                                         window_,
                                         residency[way].touchedMask,
                                         &other_has_future)) {
            unshared_candidate = true;
            if (!other_has_future) {
                dead_candidate = true;
                break;
            }
        }
    }
    if (unshared_candidate)
        ++mistakes_;
    if (dead_candidate)
        ++mistakesWithDead_;
}

double
AwarenessScorer::mistakeRate() const
{
    return evictions_ == 0
               ? 0.0
               : static_cast<double>(mistakes_) /
                     static_cast<double>(evictions_);
}

double
AwarenessScorer::sharedVictimRate() const
{
    return evictions_ == 0
               ? 0.0
               : static_cast<double>(sharedVictims_) /
                     static_cast<double>(evictions_);
}

} // namespace casim
