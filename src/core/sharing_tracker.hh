/**
 * @file
 * Residency-level sharing characterization of the LLC.
 *
 * Attributes every demand hit to the sharing class of the residency
 * that served it.  Both of its feeds report ended residencies and
 * misses: the coherent hierarchy owns one and feeds it from its LLC
 * residency records, and a stream replay (StreamSim::setSharingTracker)
 * from its per-way residency record.  Attribution is deferred to the
 * end of each residency, when the block's final sharer set is known —
 * this matches
 * the paper's framing of "the potential contributions of the shared
 * and the private blocks toward the overall volume of the LLC hits".
 */

#ifndef CASIM_CORE_SHARING_TRACKER_HH
#define CASIM_CORE_SHARING_TRACKER_HH

#include "common/stats.hh"
#include "common/types.hh"

namespace casim {

/** Sharing class of one completed LLC residency. */
enum class SharingClass : std::uint8_t
{
    PrivateReadOnly,
    PrivateReadWrite,
    SharedReadOnly,
    SharedReadWrite,
};

/** Printable name of a sharing class. */
const char *sharingClassName(SharingClass cls);

/**
 * Classify a completed residency from the cores that touched it and
 * whether any store did.
 */
SharingClass classifyResidency(std::uint64_t touched_mask, bool written);

/** Aggregates the paper's characterization metrics of an LLC. */
class SharingTracker
{
  public:
    /** @param num_cores Core count; bounds the sharer histogram. */
    explicit SharingTracker(unsigned num_cores);

    /** Account one LLC demand miss. */
    void recordMiss() { ++misses_; }

    /**
     * Account one completed residency: `touched_mask` has bit c set iff
     * core c touched the block, `hits` is the demand hits it served,
     * and `written` is true iff any store touched it.
     */
    void recordResidency(std::uint64_t touched_mask, std::uint64_t hits,
                         bool written);

    /** Completed residencies whose blocks were shared (>= 2 cores). */
    std::uint64_t sharedResidencies() const;

    /** Completed residencies whose blocks stayed private. */
    std::uint64_t privateResidencies() const;

    /** Demand hits served by shared residencies. */
    std::uint64_t sharedHits() const { return sharedHits_.value(); }

    /** Demand hits served by private residencies. */
    std::uint64_t privateHits() const { return privateHits_.value(); }

    /** All demand hits attributed so far. */
    std::uint64_t
    totalHits() const
    {
        return sharedHits_.value() + privateHits_.value();
    }

    /** Fraction of hit volume served by shared residencies. */
    double sharedHitFraction() const;

    /** Demand hits attributed to a given sharing class. */
    std::uint64_t hitsByClass(SharingClass cls) const;

    /** Completed residencies of a given sharing class. */
    std::uint64_t residenciesByClass(SharingClass cls) const;

    /**
     * Demand hits attributed to residencies with exactly `cores`
     * distinct sharers (1 <= cores <= num_cores).
     */
    std::uint64_t hitsBySharerCount(unsigned cores) const;

    /** Zero-hit residencies (dead-on-fill blocks), shared class. */
    std::uint64_t deadResidencies() const { return deadFills_.value(); }

    /** Demand misses observed. */
    std::uint64_t misses() const { return misses_.value(); }

    /** The underlying statistics group. */
    stats::StatGroup &stats() { return stats_; }
    const stats::StatGroup &stats() const { return stats_; }

  private:
    unsigned numCores_;
    stats::StatGroup stats_;
    stats::Counter &sharedHits_;
    stats::Counter &privateHits_;
    stats::Counter &misses_;
    stats::Counter &deadFills_;
    stats::CounterVector &classHits_;
    stats::CounterVector &classResidencies_;
    stats::CounterVector &sharerHits_;
    stats::CounterVector &sharerResidencies_;
};

} // namespace casim

#endif // CASIM_CORE_SHARING_TRACKER_HH
