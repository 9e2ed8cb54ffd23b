/**
 * @file
 * Re-reference interval prediction policies: SRRIP, BRRIP and DRRIP
 * (Jaleel et al., ISCA 2010), part of the "recent proposals" the paper
 * characterizes for sharing-awareness.
 */

#ifndef CASIM_MEM_REPL_RRIP_HH
#define CASIM_MEM_REPL_RRIP_HH

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mem/repl/duel.hh"
#include "mem/repl/policy.hh"

namespace casim {

/**
 * Common RRIP machinery: per-way RRPV counters, victim search with
 * aging, and hit promotion (hit-priority variant).  Each final
 * subclass implements onFill() with its insertion RRPV, so the whole
 * per-access path of a statically typed RRIP policy is direct calls.
 */
class RripBase : public ReplPolicy
{
  public:
    /** @param rrpv_bits Width of each RRPV counter (2 is standard). */
    RripBase(unsigned num_sets, unsigned num_ways, unsigned rrpv_bits);

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        (void)ctx;
        // Aging can run at most maxRrpv_ rounds before some candidate
        // saturates at the distant value.
        for (unsigned round = 0; round <= maxRrpv_; ++round) {
            for (unsigned way = 0; way < numWays(); ++way) {
                if (exclude & (1ULL << way))
                    continue;
                if (rrpv_[flat(set, way)] >= maxRrpv_)
                    return way;
            }
            for (unsigned way = 0; way < numWays(); ++way) {
                auto &v = rrpv_[flat(set, way)];
                if (v < maxRrpv_)
                    ++v;
            }
        }
        casim_panic("RRIP victim search failed to converge");
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        // Hit-priority promotion: re-referenced blocks become near.
        rrpv_[flat(set, way)] = 0;
    }

    void onInvalidate(unsigned set, unsigned way) override;

    /** Maximum (most distant) RRPV value. */
    unsigned maxRrpv() const { return maxRrpv_; }

    /** Current RRPV of a way (exposed for tests). */
    unsigned
    rrpv(unsigned set, unsigned way) const
    {
        return rrpv_[flat(set, way)];
    }

  protected:
    /** Insert the block just filled into (set, way) at RRPV `value`. */
    void
    insertAt(unsigned set, unsigned way, unsigned value)
    {
        rrpv_[flat(set, way)] = static_cast<std::uint8_t>(value);
    }

    /**
     * Bimodal insertion RRPV: distant, except with probability 1/32
     * long, so that some blocks of a thrashing stream survive.
     */
    unsigned
    bimodalRrpv(Rng &rng) const
    {
        return rng.below(32) == 0 ? maxRrpv_ - 1 : maxRrpv_;
    }

  private:
    unsigned maxRrpv_;
    std::vector<std::uint8_t> rrpv_;
};

/** Static RRIP: inserts at maxRrpv - 1 (long re-reference interval). */
class SrripPolicy final : public RripBase
{
  public:
    SrripPolicy(unsigned num_sets, unsigned num_ways,
                unsigned rrpv_bits = 2)
        : RripBase(num_sets, num_ways, rrpv_bits)
    {
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        insertAt(set, way, maxRrpv() - 1);
    }

    std::string name() const override { return "srrip"; }
};

/**
 * Bimodal RRIP: inserts at maxRrpv (distant) except with probability
 * 1/32, when it inserts at maxRrpv - 1.
 */
class BrripPolicy final : public RripBase
{
  public:
    BrripPolicy(unsigned num_sets, unsigned num_ways,
                unsigned rrpv_bits = 2, std::uint64_t seed = 0xb1b0)
        : RripBase(num_sets, num_ways, rrpv_bits), rng_(seed)
    {
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        insertAt(set, way, bimodalRrpv(rng_));
    }

    std::string name() const override { return "brrip"; }

  private:
    Rng rng_;
};

/**
 * Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion with a
 * saturating policy selector (PSEL).
 */
class DrripPolicy final : public RripBase
{
  public:
    DrripPolicy(unsigned num_sets, unsigned num_ways,
                unsigned rrpv_bits = 2, std::uint64_t seed = 0xd1b0)
        : RripBase(num_sets, num_ways, rrpv_bits), duel_(num_sets),
          rng_(seed)
    {
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        insertAt(set, way, duel_.useBimodal(set) ? bimodalRrpv(rng_)
                                                 : maxRrpv() - 1);
    }

    std::string name() const override { return "drrip"; }

    /** The SRRIP-vs-BRRIP duel (exposed for tests). */
    const SetDuel &duel() const { return duel_; }

  private:
    SetDuel duel_;
    Rng rng_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_RRIP_HH
