/**
 * @file
 * Cache block (line) state, including the instrumentation fields the
 * sharing study relies on.
 */

#ifndef CASIM_MEM_BLOCK_HH
#define CASIM_MEM_BLOCK_HH

#include <type_traits>

#include "common/bitops.hh"
#include "common/types.hh"

namespace casim {

/** MESI coherence states of the hierarchy's private L1 copies. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Printable name of a MESI state. */
const char *mesiStateName(MesiState state);

/**
 * One cache way's payload: its block plus the residency
 * instrumentation a replayed LLC's observers read (the sharing study,
 * training labelers, the awareness scorer, the prefetcher).
 *
 * Fields are ordered widest first and the struct is line-aligned so
 * every block occupies exactly one 64-byte cache line: a hit's
 * instrumentation update or a fill's install then touches one line,
 * not two.
 */
struct alignas(64) CacheBlock
{
    /** Block-aligned address held by this way (valid only if valid). */
    Addr addr = kAddrInvalid;

    // --- Residency instrumentation ------------------------------------

    /** Bit c set iff core c accessed the block during this residency. */
    std::uint64_t touchedMask = 0;

    /** Demand hits served by the block during this residency. */
    std::uint64_t hitsDuringResidency = 0;

    /** Global stream position of the fill that started this residency. */
    SeqNo fillSeq = 0;

    /** PC of the instruction whose miss triggered the fill. */
    PC fillPC = 0;

    /** True iff the way holds a block. */
    bool valid = false;

    /** True iff the held data is newer than the next level's copy. */
    bool dirty = false;

    /** True iff any store touched the block during this residency. */
    bool writtenDuringResidency = false;

    /** Core whose miss triggered the fill. */
    CoreId fillCore = 0;

    /** Fill-time sharing label attached by an oracle or predictor. */
    bool predictedShared = false;

    /** True iff the block was installed by a prefetch and not yet
     *  referenced by a demand access. */
    bool prefetched = false;

    /** Number of distinct cores that touched the block this residency. */
    unsigned touchedCores() const { return popCount(touchedMask); }

    /** True iff >= 2 distinct cores touched the block this residency. */
    bool sharedThisResidency() const { return touchedCores() >= 2; }

    /** Clear everything back to an empty way. */
    void
    invalidate()
    {
        *this = CacheBlock{};
    }
};

static_assert(sizeof(CacheBlock) == 64,
              "CacheBlock must fill exactly one cache line");
// Cache carves its payload out of raw storage and never runs
// destructors on it.
static_assert(std::is_trivially_destructible_v<CacheBlock>);

} // namespace casim

#endif // CASIM_MEM_BLOCK_HH
