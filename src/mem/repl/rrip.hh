/**
 * @file
 * Re-reference interval prediction policies: SRRIP, BRRIP and DRRIP
 * (Jaleel et al., ISCA 2010), part of the "recent proposals" the paper
 * characterizes for sharing-awareness.
 */

#ifndef CASIM_MEM_REPL_RRIP_HH
#define CASIM_MEM_REPL_RRIP_HH

#include <vector>

#include "common/rng.hh"
#include "mem/repl/policy.hh"

namespace casim {

/**
 * Common RRIP machinery: per-way RRPV counters, victim search with
 * aging, and hit promotion (hit-priority variant).  Subclasses choose
 * the insertion RRPV.
 */
class RripBase : public ReplPolicy
{
  public:
    /** @param rrpv_bits Width of each RRPV counter (2 is standard). */
    RripBase(unsigned num_sets, unsigned num_ways, unsigned rrpv_bits);

    unsigned victim(unsigned set, const ReplContext &ctx,
                    std::uint64_t exclude) override;
    void onFill(unsigned set, unsigned way, const ReplContext &ctx) override;
    void onHit(unsigned set, unsigned way, const ReplContext &ctx) override;
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
    /** Insertion RRPV for a fill in the given set. */
    virtual unsigned insertionRrpv(unsigned set,
                                   const ReplContext &ctx) = 0;

  private:
    unsigned maxRrpv_;
    std::vector<std::uint8_t> rrpv_;
};

/** Static RRIP: inserts at maxRrpv - 1 (long re-reference interval). */
class SrripPolicy : public RripBase
{
  public:
    SrripPolicy(unsigned num_sets, unsigned num_ways,
                unsigned rrpv_bits = 2)
        : RripBase(num_sets, num_ways, rrpv_bits)
    {
    }

    std::string name() const override { return "srrip"; }

  protected:
    unsigned
    insertionRrpv(unsigned set, const ReplContext &ctx) override
    {
        (void)set;
        (void)ctx;
        return maxRrpv() - 1;
    }
};

/**
 * Bimodal RRIP: inserts at maxRrpv (distant) except with probability
 * 1/32, when it inserts at maxRrpv - 1.
 */
class BrripPolicy : public RripBase
{
  public:
    BrripPolicy(unsigned num_sets, unsigned num_ways,
                unsigned rrpv_bits = 2, std::uint64_t seed = 0xb1b0);

    std::string name() const override { return "brrip"; }

  protected:
    unsigned insertionRrpv(unsigned set, const ReplContext &ctx) override;

  private:
    Rng rng_;
};

/**
 * Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion with a
 * saturating policy selector (PSEL).
 */
class DrripPolicy : public RripBase
{
  public:
    DrripPolicy(unsigned num_sets, unsigned num_ways,
                unsigned rrpv_bits = 2, std::uint64_t seed = 0xd1b0);

    std::string name() const override { return "drrip"; }

    /** Set-dueling role of a set (exposed for tests). */
    enum class Role : std::uint8_t { Follower, SrripLeader, BrripLeader };

    /** Role assigned to a set. */
    Role role(unsigned set) const { return roles_[set]; }

    /** Current PSEL value (exposed for tests). */
    unsigned psel() const { return psel_; }

  protected:
    unsigned insertionRrpv(unsigned set, const ReplContext &ctx) override;

  private:
    static constexpr unsigned kPselBits = 10;
    static constexpr unsigned kPselMax = (1u << kPselBits) - 1;

    std::vector<Role> roles_;
    unsigned psel_ = 1u << (kPselBits - 1);
    Rng rng_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_RRIP_HH
