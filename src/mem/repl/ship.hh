/**
 * @file
 * SHiP-PC: signature-based hit prediction on an SRRIP base
 * (Wu et al., MICRO 2011), the strongest of the "recent proposals" the
 * paper characterizes.
 */

#ifndef CASIM_MEM_REPL_SHIP_HH
#define CASIM_MEM_REPL_SHIP_HH

#include <vector>

#include "common/rng.hh"
#include "mem/repl/rrip.hh"

namespace casim {

/**
 * SHiP with PC signatures.
 *
 * A signature history counter table (SHCT) of saturating counters learns
 * whether fills from a given PC tend to be re-referenced; fills whose
 * counter is zero are inserted at the distant RRPV so they become
 * eviction candidates quickly.
 */
class ShipPolicy final : public RripBase
{
  public:
    /**
     * @param sig_bits  log2 of the SHCT size (14 -> 16K entries).
     * @param ctr_bits  Width of each SHCT counter (3 is standard).
     */
    ShipPolicy(unsigned num_sets, unsigned num_ways,
               unsigned rrpv_bits = 2, unsigned sig_bits = 14,
               unsigned ctr_bits = 3);

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        const std::uint32_t sig = signature(ctx.pc);
        // Fills whose signature has never produced a hit are predicted
        // dead-on-arrival and inserted at the distant RRPV.
        insertAt(set, way, shct_[sig] == 0 ? maxRrpv() : maxRrpv() - 1);
        const std::size_t f = flat(set, way);
        waySig_[f] = sig;
        wayOutcome_[f] = 0;
        wayLive_[f] = 1;
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        RripBase::onHit(set, way, ctx);
        const std::size_t f = flat(set, way);
        if (wayLive_[f] && !wayOutcome_[f]) {
            wayOutcome_[f] = 1;
            auto &ctr = shct_[waySig_[f]];
            if (ctr < ctrMax_)
                ++ctr;
        }
    }

    void
    onEvict(unsigned set, unsigned way) override
    {
        learnEviction(set, way);
    }

    void onInvalidate(unsigned set, unsigned way) override;
    std::string name() const override { return "ship"; }

    /** SHCT counter for a raw signature value (exposed for tests). */
    unsigned
    shctValue(std::uint32_t sig) const
    {
        return shct_[sig & sigMask_];
    }

    /** Signature computed from a fill PC (exposed for tests). */
    std::uint32_t
    signature(PC pc) const
    {
        return static_cast<std::uint32_t>(mix64(pc)) & sigMask_;
    }

  private:
    /** A residency at (set, way) ended; train on whether it hit. */
    void
    learnEviction(unsigned set, unsigned way)
    {
        const std::size_t f = flat(set, way);
        if (wayLive_[f] && !wayOutcome_[f]) {
            auto &ctr = shct_[waySig_[f]];
            if (ctr > 0)
                --ctr;
        }
        wayLive_[f] = 0;
    }

    std::uint32_t sigMask_;
    std::uint8_t ctrMax_;
    std::vector<std::uint8_t> shct_;
    std::vector<std::uint32_t> waySig_;
    std::vector<std::uint8_t> wayOutcome_;
    std::vector<std::uint8_t> wayLive_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_SHIP_HH
