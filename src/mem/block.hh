/**
 * @file
 * Coherence state of a cached block.
 */

#ifndef CASIM_MEM_BLOCK_HH
#define CASIM_MEM_BLOCK_HH

#include <cstdint>

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

} // namespace casim

#endif // CASIM_MEM_BLOCK_HH
