/**
 * @file
 * True LRU (the paper's baseline policy) and the recency stamps that
 * the LRU-based insertion policies, DIP and TADIP-F, share with it.
 */

#ifndef CASIM_MEM_REPL_LRU_HH
#define CASIM_MEM_REPL_LRU_HH

#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "mem/repl/policy.hh"

namespace casim {

/**
 * True LRU via per-way use timestamps, with a choice of insertion end.
 *
 * The victim is the non-excluded way with the smallest stamp.  A hit or
 * an MRU insertion stamps the way from a rising clock; an LRU insertion
 * stamps it from a second clock that counts down from below every
 * rising stamp.  That is exactly a recency list with move-to-front and
 * move-to-back: a way's last front-move ranks it by recency above every
 * back-moved way, and among back-moved ways the latest is the LRU-most.
 * Ways never stamped tie, but victim() only runs on full sets, whose
 * ways have all been filled.  Each final subclass implements onFill()
 * with its insertion end.
 */
class LruBase : public ReplPolicy
{
  public:
    LruBase(unsigned num_sets, unsigned num_ways);

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        (void)ctx;
        // The common shape — no exclusions, vector-friendly width — is
        // a pure argmin over the set's stamp row and takes the
        // branchless SIMD kernel.  Either path selects the same way:
        // strict less-than with earliest-index tie-break.
        if (exclude == 0 && simdVictim_) {
            const unsigned best = simd::argminU64Vector(
                &stamp_[flat(set, 0)], numWays());
#ifdef CASIM_PARANOID
            casim_assert(best == simd::argminU64Scalar(
                                     &stamp_[flat(set, 0)], numWays()),
                         "SIMD stamp argmin disagrees with the scalar "
                         "scan");
#endif
            return best;
        }
        unsigned best = numWays();
        std::uint64_t best_stamp =
            std::numeric_limits<std::uint64_t>::max();
        for (unsigned way = 0; way < numWays(); ++way) {
            if (exclude & (1ULL << way))
                continue;
            if (stamp_[flat(set, way)] < best_stamp) {
                best_stamp = stamp_[flat(set, way)];
                best = way;
            }
        }
        casim_assert(best != numWays(), "all ways excluded in LRU victim");
        return best;
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        stamp_[flat(set, way)] = ++clock_;
    }

    void onInvalidate(unsigned set, unsigned way) override;

    /**
     * LRU stack distance of a way within its set: 0 = MRU.  Exposed for
     * characterization (hit-position profiles) and tests.
     */
    unsigned stackDepth(unsigned set, unsigned way) const;

  protected:
    /** Insert the block just filled into (set, way) as the MRU. */
    void
    insertMru(unsigned set, unsigned way)
    {
        stamp_[flat(set, way)] = ++clock_;
    }

    /** Insert the block just filled into (set, way) as the LRU. */
    void
    insertLru(unsigned set, unsigned way)
    {
        stamp_[flat(set, way)] = --lruClock_;
    }

  private:
    /** Both clocks start here: rising stamps above, LRU inserts below. */
    static constexpr std::uint64_t kClockSplit = std::uint64_t{1} << 63;

    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = kClockSplit;
    std::uint64_t lruClock_ = kClockSplit;

    /**
     * Victim scans may take the SIMD argmin: vector kernels enabled
     * and the way count fills whole vector lanes.  Resolved once at
     * construction.
     */
    bool simdVictim_ = false;
};

/** LRU: every fill enters at the MRU position. */
class LruPolicy final : public LruBase
{
  public:
    using LruBase::LruBase;

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        insertMru(set, way);
    }

    std::string name() const override { return "lru"; }
};

} // namespace casim

#endif // CASIM_MEM_REPL_LRU_HH
