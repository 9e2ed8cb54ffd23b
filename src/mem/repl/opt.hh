/**
 * @file
 * Belady's optimal replacement, evaluated offline over a fixed reference
 * stream.  Only usable in stream-replay simulations where access
 * sequence numbers equal positions in the indexed trace.
 */

#ifndef CASIM_MEM_REPL_OPT_HH
#define CASIM_MEM_REPL_OPT_HH

#include <vector>

#include "common/logging.hh"
#include "mem/repl/policy.hh"
#include "trace/next_use.hh"

namespace casim {

/**
 * OPT: evict the resident block whose next use lies farthest in the
 * future.  Each way caches the position of its block's next reference,
 * refreshed from the offline index on every fill and hit.
 */
class OptPolicy final : public ReplPolicy
{
  public:
    /**
     * @param index Next-use index built over the exact stream this cache
     *              will replay; must outlive the policy.
     */
    OptPolicy(unsigned num_sets, unsigned num_ways,
              const NextUseIndex &index);

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        (void)ctx;
        unsigned best = numWays();
        SeqNo farthest = 0;
        for (unsigned way = 0; way < numWays(); ++way) {
            if (exclude & (1ULL << way))
                continue;
            const SeqNo next = nextUse_[flat(set, way)];
            if (best == numWays() || next > farthest) {
                farthest = next;
                best = way;
            }
            if (next == kSeqNever)
                break; // dead block: cannot do better
        }
        casim_assert(best != numWays(), "all ways excluded in OPT victim");
        return best;
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        casim_assert(ctx.seq < index_.size(),
                     "OPT fill seq outside indexed stream");
        nextUse_[flat(set, way)] = index_.nextUse(ctx.seq);
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        casim_assert(ctx.seq < index_.size(),
                     "OPT hit seq outside indexed stream");
        nextUse_[flat(set, way)] = index_.nextUse(ctx.seq);
    }

    void onInvalidate(unsigned set, unsigned way) override;
    std::string name() const override { return "opt"; }

    /** Cached next-use position of a way (exposed for tests). */
    SeqNo
    nextUse(unsigned set, unsigned way) const
    {
        return nextUse_[flat(set, way)];
    }

  private:
    const NextUseIndex &index_;
    std::vector<SeqNo> nextUse_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_OPT_HH
