/**
 * @file
 * Least-recently-used replacement (the paper's baseline policy).
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
 * True LRU via per-way use timestamps.
 *
 * The victim is the non-excluded way with the smallest timestamp; fills
 * and hits stamp the way with a monotonically increasing counter.
 */
class LruPolicy final : public ReplPolicy
{
  public:
    LruPolicy(unsigned num_sets, unsigned num_ways);

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
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        stamp_[flat(set, way)] = ++clock_;
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        stamp_[flat(set, way)] = ++clock_;
    }

    void onInvalidate(unsigned set, unsigned way) override;
    std::string name() const override { return "lru"; }

    /**
     * LRU stack distance of a way within its set: 0 = MRU.  Exposed for
     * characterization (hit-position profiles).
     */
    unsigned stackDepth(unsigned set, unsigned way) const;

  private:
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;

    /**
     * Victim scans may take the SIMD argmin: vector kernels enabled
     * and the way count fills whole vector lanes.  Resolved once at
     * construction.
     */
    bool simdVictim_ = false;
};

} // namespace casim

#endif // CASIM_MEM_REPL_LRU_HH
