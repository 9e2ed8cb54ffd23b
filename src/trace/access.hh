/**
 * @file
 * The memory-access record that flows through the whole simulator.
 */

#ifndef CASIM_TRACE_ACCESS_HH
#define CASIM_TRACE_ACCESS_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace casim {

/**
 * One demand memory reference issued by a core.
 *
 * Workload generators emit a globally interleaved sequence of these; the
 * hierarchy simulator consumes them in order.  The same record type is
 * used for captured LLC reference streams, where each record is an access
 * that missed in the issuing core's private cache.
 *
 * The record is 12 bytes: block numbers are 32-bit everywhere (see
 * kBlockNumberLimit) and every generated PC fits in 32 bits, so
 * makeAccess() packs a reference and refuses one that does not fit.
 * The declared constructor makes the record a non-aggregate, so a
 * braced `MemAccess{addr, ...}` cannot store a byte address as the
 * block number.
 */
struct MemAccess
{
    MemAccess() = default;

    /** Block number of the reference (byte address >> kBlockShift). */
    std::uint32_t block = 0;

    /** Program counter of the load/store instruction. */
    std::uint32_t pc = 0;

    /** Issuing core. */
    CoreId core = 0;

    /** True for a store, false for a load. */
    bool isWrite = false;

    /** Always zero (explicit so file bytes are deterministic). */
    std::uint16_t pad = 0;

    /** Block-aligned byte address of the reference. */
    Addr blockAddr() const { return Addr{block} << kBlockShift; }
};

/** Fatal diagnostic for a reference that makeAccess() cannot pack. */
[[noreturn]] void refuseAccess(Addr addr, PC pc);

/**
 * Pack one reference.  Fatal when the block number of `addr` is at or
 * above kBlockNumberLimit or `pc` needs more than 32 bits.
 */
inline MemAccess
makeAccess(Addr addr, PC pc, CoreId core, bool is_write)
{
    if (blockNumber(addr) >= kBlockNumberLimit || pc > 0xFFFFFFFFu)
        [[unlikely]] refuseAccess(addr, pc);
    MemAccess access;
    access.block = static_cast<std::uint32_t>(blockNumber(addr));
    access.pc = static_cast<std::uint32_t>(pc);
    access.core = core;
    access.isWrite = is_write;
    return access;
}

// The CCAP v4 trace section stores records in this exact in-memory
// layout so a mapped bundle is usable as a `const MemAccess *` with no
// deserialization.  These asserts pin the layout (and byte order) the
// format depends on; 12-byte records keep 2^18-record epochs on page
// boundaries (trace_io.hh).
static_assert(sizeof(MemAccess) == 12,
              "CCAP v4 assumes 12-byte trace records");
static_assert(alignof(MemAccess) == 4,
              "CCAP v4 assumes 4-byte record alignment");
static_assert(sizeof(bool) == 1, "CCAP v4 stores isWrite as one byte");
static_assert(offsetof(MemAccess, block) == 0 &&
                  offsetof(MemAccess, pc) == 4 &&
                  offsetof(MemAccess, core) == 8 &&
                  offsetof(MemAccess, isWrite) == 9 &&
                  offsetof(MemAccess, pad) == 10,
              "CCAP v4 assumes the MemAccess field offsets");
static_assert(std::endian::native == std::endian::little,
              "CCAP v4 trace sections are little-endian");

} // namespace casim

#endif // CASIM_TRACE_ACCESS_HH
