/**
 * @file
 * Pluggable replacement-policy framework.
 *
 * A ReplPolicy instance is owned by exactly one cache and keeps whatever
 * per-(set, way) state it needs.  The cache fills invalid ways itself and
 * only consults victim() when a set is full.  victim() takes an exclusion
 * bitmask so that wrappers (the sharing-aware victim filter) can veto
 * candidates while letting the base policy rank the remainder — this is
 * the mechanism behind the paper's "generic oracle usable with any
 * existing policy".
 */

#ifndef CASIM_MEM_REPL_POLICY_HH
#define CASIM_MEM_REPL_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/types.hh"

namespace casim {

/** Per-access information visible to replacement policies. */
struct ReplContext
{
    /** Block-aligned address being accessed/filled. */
    Addr blockAddr = 0;

    /** PC of the triggering instruction. */
    PC pc = 0;

    /** Issuing core. */
    CoreId core = 0;

    /** True for a store. */
    bool isWrite = false;

    /** Position of this access in the cache's reference stream. */
    SeqNo seq = 0;

    /** Fill-time sharing label (oracle or predictor), fills only. */
    bool predictedShared = false;
};

/**
 * Abstract replacement policy.
 *
 * Lifecycle per block: onFill -> zero or more onHit -> (onEvict |
 * onInvalidate).  onEvict is a policy-initiated replacement; an
 * onInvalidate is an external removal (coherence back-invalidation).
 */
class ReplPolicy
{
  public:
    /**
     * @param num_sets Number of sets in the owning cache.
     * @param num_ways Associativity of the owning cache.
     */
    ReplPolicy(unsigned num_sets, unsigned num_ways)
        : numSets_(num_sets), numWays_(num_ways)
    {
    }
    virtual ~ReplPolicy() = default;

    ReplPolicy(const ReplPolicy &) = delete;
    ReplPolicy &operator=(const ReplPolicy &) = delete;

    /**
     * Choose a victim way in a full set.
     *
     * @param set     Set index.
     * @param ctx     The access causing the replacement.
     * @param exclude Bitmask of ways that must not be chosen.  The caller
     *                guarantees at least one way is not excluded.
     * @return The victim way index.
     */
    virtual unsigned victim(unsigned set, const ReplContext &ctx,
                            std::uint64_t exclude) = 0;

    /** A block was installed in (set, way). */
    virtual void onFill(unsigned set, unsigned way,
                        const ReplContext &ctx) = 0;

    /** A demand access hit (set, way). */
    virtual void onHit(unsigned set, unsigned way,
                       const ReplContext &ctx) = 0;

    /** The block in (set, way) is about to be replaced by this policy. */
    virtual void onEvict(unsigned set, unsigned way) { (void)set; (void)way; }

    /** The block in (set, way) was removed externally. */
    virtual void
    onInvalidate(unsigned set, unsigned way)
    {
        onEvict(set, way);
    }

    /** Short policy name used in reports (e.g. "lru", "drrip"). */
    virtual std::string name() const = 0;

    /** Number of sets this policy serves. */
    unsigned numSets() const { return numSets_; }

    /** Associativity this policy serves. */
    unsigned numWays() const { return numWays_; }

  protected:
    /** Flat index of (set, way) into per-way state arrays. */
    std::size_t
    flat(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * numWays_ + way;
    }

  private:
    unsigned numSets_;
    unsigned numWays_;
};

/**
 * Factory that builds a fresh policy instance for a cache geometry.
 *
 * Experiments describe the policies they sweep as factories so a new,
 * state-free instance can be built per (workload, cache) run.  Factories
 * may capture experiment-scoped context (e.g. the next-use index for
 * Belady's OPT or an oracle labeler for the sharing-aware wrapper).
 */
using ReplPolicyFactory =
    std::function<std::unique_ptr<ReplPolicy>(unsigned num_sets,
                                              unsigned num_ways)>;

} // namespace casim

#endif // CASIM_MEM_REPL_POLICY_HH
