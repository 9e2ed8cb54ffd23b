/**
 * @file
 * Implementation of the sharing-awareness scorer.
 */

#include "core/awareness.hh"

namespace casim {

void
AwarenessScorer::onEviction(const Cache &cache, unsigned set,
                            unsigned victim_way, SeqNo now)
{
    ++evictions_;
    const CacheBlock &victim = cache.blockAt(set, victim_way);
    const unsigned ways = cache.geometry().ways;
    // The victim query and every candidate query below probe the
    // index's block table, so prefetch all of those slots up front:
    // their misses overlap instead of serializing one per way.
    index_.prefetchBlock(victim.addr);
    for (unsigned way = 0; way < ways; ++way) {
        if (way == victim_way)
            continue;
        const CacheBlock &other = cache.blockAt(set, way);
        if (other.valid)
            index_.prefetchBlock(other.addr);
    }
    // The victim's residency "would still be shared" if its future
    // window contains references and the residency's sharer set (past
    // touches plus future touches) spans at least two cores.  The
    // early-exit query stops scanning the reference list as soon as
    // the verdict is decided, instead of materializing the full mask.
    if (!index_.residencyStaysShared(victim.addr, now, window_,
                                     victim.touchedMask))
        return;
    ++sharedVictims_;

    bool unshared_candidate = false;
    bool dead_candidate = false;
    for (unsigned way = 0; way < ways; ++way) {
        if (way == victim_way)
            continue;
        const CacheBlock &other = cache.blockAt(set, way);
        if (!other.valid)
            continue;
        bool other_has_future = false;
        if (!index_.residencyStaysShared(other.addr, now, window_,
                                         other.touchedMask,
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
