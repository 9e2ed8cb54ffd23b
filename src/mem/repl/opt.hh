/**
 * @file
 * Belady's optimal replacement, evaluated offline over a fixed reference
 * stream.  Only usable in stream-replay simulations where access
 * sequence numbers equal positions in the indexed trace.
 */

#ifndef CASIM_MEM_REPL_OPT_HH
#define CASIM_MEM_REPL_OPT_HH

#include <vector>

#include "mem/repl/policy.hh"
#include "trace/next_use.hh"

namespace casim {

/**
 * OPT: evict the resident block whose next use lies farthest in the
 * future.  Each way caches the position of its block's next reference,
 * refreshed from the offline index on every fill and hit.
 */
class OptPolicy : public ReplPolicy
{
  public:
    /**
     * @param index Next-use index built over the exact stream this cache
     *              will replay; must outlive the policy.
     */
    OptPolicy(unsigned num_sets, unsigned num_ways,
              const NextUseIndex &index);

    unsigned victim(unsigned set, const ReplContext &ctx,
                    std::uint64_t exclude) override;
    void onFill(unsigned set, unsigned way, const ReplContext &ctx) override;
    void onHit(unsigned set, unsigned way, const ReplContext &ctx) override;
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
