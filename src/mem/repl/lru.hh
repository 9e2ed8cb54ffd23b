/**
 * @file
 * Least-recently-used replacement (the paper's baseline policy).
 */

#ifndef CASIM_MEM_REPL_LRU_HH
#define CASIM_MEM_REPL_LRU_HH

#include <vector>

#include "mem/repl/policy.hh"

namespace casim {

/**
 * True LRU via per-way use timestamps.
 *
 * The victim is the non-excluded way with the smallest timestamp; fills
 * and hits stamp the way with a monotonically increasing counter.
 */
class LruPolicy : public ReplPolicy
{
  public:
    LruPolicy(unsigned num_sets, unsigned num_ways);

    unsigned victim(unsigned set, const ReplContext &ctx,
                    std::uint64_t exclude) override;
    void onFill(unsigned set, unsigned way, const ReplContext &ctx) override;
    void onHit(unsigned set, unsigned way, const ReplContext &ctx) override;
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
