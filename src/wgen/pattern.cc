/**
 * @file
 * Implementation of the sharing-pattern primitives.
 */

#include "wgen/pattern.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace casim {

PhaseBuilder::PhaseBuilder(unsigned threads)
    : threads_(threads), perThread_(threads)
{
    casim_assert(threads >= 1 && threads <= kMaxCores,
                 "bad thread count ", threads);
}

void
PhaseBuilder::emit(unsigned tid, Addr addr, PC pc, bool is_write)
{
    casim_assert(tid < threads_, "emit for thread ", tid, " of ",
                 threads_);
    perThread_[tid].push_back(
        makeAccess(addr, pc, static_cast<CoreId>(tid), is_write));
}

std::size_t
PhaseBuilder::threadSize(unsigned tid) const
{
    return perThread_.at(tid).size();
}

std::size_t
PhaseBuilder::totalSize() const
{
    std::size_t total = 0;
    for (const auto &seq : perThread_)
        total += seq.size();
    return total;
}

void
PhaseBuilder::interleaveInto(Trace &trace, Rng &rng, unsigned max_burst)
{
    casim_assert(max_burst >= 1, "burst must be positive");
    trace.reserve(trace.size() + totalSize());
    std::vector<std::size_t> cursor(threads_, 0);
    std::vector<unsigned> active;
    for (unsigned tid = 0; tid < threads_; ++tid) {
        if (!perThread_[tid].empty())
            active.push_back(tid);
    }

    // Randomized round-robin with short bursts.  Threads that run out
    // simply drop from the rotation, as a thread waiting at a barrier
    // would.
    while (!active.empty()) {
        rng.shuffle(active);
        for (std::size_t k = 0; k < active.size();) {
            const unsigned tid = active[k];
            const std::uint64_t burst = rng.range(1, max_burst);
            auto &seq = perThread_[tid];
            std::size_t &pos = cursor[tid];
            for (std::uint64_t b = 0; b < burst && pos < seq.size(); ++b)
                trace.append(seq[pos++]);
            if (pos >= seq.size())
                active.erase(active.begin() +
                             static_cast<std::ptrdiff_t>(k));
            else
                ++k;
        }
    }

    for (auto &seq : perThread_)
        seq.clear();
}

void
emitStream(PhaseBuilder &phase, unsigned tid, const Region &region,
           PC pc, std::uint64_t count, double write_frac, Rng &rng,
           std::uint64_t start_block, std::uint64_t stride)
{
    const std::uint64_t blocks = region.blocks();
    casim_assert(blocks > 0, "stream over empty region");
    std::uint64_t block = start_block % blocks;
    for (std::uint64_t i = 0; i < count; ++i) {
        phase.emit(tid, region.blockAddr(block), pc,
                   rng.chance(write_frac));
        block = (block + stride) % blocks;
    }
}

void
emitRandom(PhaseBuilder &phase, unsigned tid, const Region &region,
           PC pc, std::uint64_t count, double write_frac, Rng &rng)
{
    const std::uint64_t blocks = region.blocks();
    casim_assert(blocks > 0, "random touches over empty region");
    for (std::uint64_t i = 0; i < count; ++i) {
        phase.emit(tid, region.blockAddr(rng.below(blocks)), pc,
                   rng.chance(write_frac));
    }
}

void
emitZipf(PhaseBuilder &phase, unsigned tid, const Region &region, PC pc,
         std::uint64_t count, double write_frac,
         const ZipfSampler &sampler, Rng &rng)
{
    casim_assert(sampler.size() <= region.blocks(),
                 "Zipf domain larger than region");
    for (std::uint64_t i = 0; i < count; ++i) {
        phase.emit(tid, region.blockAddr(sampler.sample(rng)), pc,
                   rng.chance(write_frac));
    }
}

void
emitChase(PhaseBuilder &phase, unsigned tid, const Region &region, PC pc,
          std::uint64_t count, double write_frac, Rng &rng,
          std::uint64_t start_block)
{
    const std::uint64_t blocks = region.blocks();
    casim_assert(blocks > 0, "chase over empty region");
    // A full-period LCG over [0, blocks) requires a power-of-two
    // modulus; round down and chase within that prefix.
    std::uint64_t domain = std::uint64_t{1} << floorLog2(blocks);
    std::uint64_t block = start_block & (domain - 1);
    for (std::uint64_t i = 0; i < count; ++i) {
        phase.emit(tid, region.blockAddr(block), pc,
                   rng.chance(write_frac));
        block = (block * 5 + 1) & (domain - 1); // full-period LCG step
    }
}

void
emitQueue(PhaseBuilder &phase, unsigned producer, unsigned consumer,
          const Region &queue, PC produce_pc, PC consume_pc,
          std::uint64_t count, unsigned reads)
{
    const std::uint64_t blocks = queue.blocks();
    casim_assert(blocks > 0, "queue over empty region");
    for (std::uint64_t i = 0; i < count; ++i) {
        const Addr slot = queue.blockAddr(i % blocks);
        phase.emit(producer, slot, produce_pc, true);
        for (unsigned r = 0; r < reads; ++r)
            phase.emit(consumer, slot, consume_pc, false);
    }
}

void
emitMigratory(PhaseBuilder &phase,
              const std::vector<unsigned> &thread_order,
              const Region &object, PC read_pc, PC write_pc,
              unsigned rounds)
{
    casim_assert(!thread_order.empty(), "migratory with no threads");
    for (unsigned round = 0; round < rounds; ++round) {
        for (unsigned tid : thread_order) {
            for (std::uint64_t b = 0; b < object.blocks(); ++b) {
                phase.emit(tid, object.blockAddr(b), read_pc, false);
                phase.emit(tid, object.blockAddr(b), write_pc, true);
            }
        }
    }
}

} // namespace casim
