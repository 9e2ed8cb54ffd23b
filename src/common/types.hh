/**
 * @file
 * Fundamental type aliases and constants shared across the simulator.
 */

#ifndef CASIM_COMMON_TYPES_HH
#define CASIM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace casim {

/** Physical byte address. */
using Addr = std::uint64_t;

/** Program counter of the instruction that issued a memory access. */
using PC = std::uint64_t;

/** Identifier of a core (hardware thread) in the simulated CMP. */
using CoreId = std::uint8_t;

/** Position in a (global or per-cache) reference stream. */
using SeqNo = std::uint64_t;

/** Simulated cycle count. */
using Tick = std::uint64_t;

/** Sentinel for "no sequence number / never". */
constexpr SeqNo kSeqNever = std::numeric_limits<SeqNo>::max();

/** Sentinel for an invalid address. */
constexpr Addr kAddrInvalid = std::numeric_limits<Addr>::max();

/** Default cache block size used throughout the study (bytes). */
constexpr unsigned kBlockBytes = 64;

/** log2 of the default block size. */
constexpr unsigned kBlockShift = 6;

/**
 * Every block number must be below this bound.  Cache tag rows hold
 * 32-bit block numbers and reserve the all-ones value for empty ways;
 * Trace::append, the CCAP v4 data check and every Cache fill enforce
 * the bound, and a lookup beyond it always misses.
 */
constexpr Addr kBlockNumberLimit = 0xFFFFFFFF;

/** Maximum number of cores the sharer bit-vectors support. */
constexpr unsigned kMaxCores = 64;

/** Convert a byte address to a block-aligned address. */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kBlockBytes - 1);
}

/** Convert a byte address to a block number. */
constexpr Addr
blockNumber(Addr addr)
{
    return addr >> kBlockShift;
}

} // namespace casim

#endif // CASIM_COMMON_TYPES_HH
