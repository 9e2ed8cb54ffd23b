/**
 * @file
 * Not-recently-used replacement (one reference bit per way).
 */

#ifndef CASIM_MEM_REPL_NRU_HH
#define CASIM_MEM_REPL_NRU_HH

#include <vector>

#include "common/logging.hh"
#include "mem/repl/policy.hh"

namespace casim {

/**
 * Classic NRU: each way has a reference bit that is set on fill and hit.
 * The victim is the lowest-indexed non-excluded way with a clear bit;
 * when every candidate's bit is set, all bits in the set are cleared
 * first.
 */
class NruPolicy final : public ReplPolicy
{
  public:
    NruPolicy(unsigned num_sets, unsigned num_ways);

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        (void)ctx;
        for (int attempt = 0; attempt < 2; ++attempt) {
            for (unsigned way = 0; way < numWays(); ++way) {
                if (exclude & (1ULL << way))
                    continue;
                if (refBit_[flat(set, way)] == 0)
                    return way;
            }
            // Every candidate was recently used: age the whole set.
            for (unsigned way = 0; way < numWays(); ++way)
                refBit_[flat(set, way)] = 0;
        }
        casim_panic("NRU victim search failed");
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        refBit_[flat(set, way)] = 1;
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        (void)ctx;
        refBit_[flat(set, way)] = 1;
    }

    void onInvalidate(unsigned set, unsigned way) override;
    std::string name() const override { return "nru"; }

  private:
    std::vector<std::uint8_t> refBit_;
};

} // namespace casim

#endif // CASIM_MEM_REPL_NRU_HH
