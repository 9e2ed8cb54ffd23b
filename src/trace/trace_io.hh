/**
 * @file
 * The CCAP v4 capture bundle: the one on-disk trace format.
 *
 * Captured LLC streams are expensive to regenerate (a full hierarchy
 * simulation); a bundle persists one capture plus its precomputed
 * next-use data so experiment binaries and casimd share it.  One
 * decoder serves both ways of loading a bundle: mapping it zero-copy
 * (mapCaptureBundle) or reading it whole into memory
 * (readInCaptureBundle).
 */

#ifndef CASIM_TRACE_TRACE_IO_HH
#define CASIM_TRACE_TRACE_IO_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace casim {

/**
 * Crash-safe file write shared by every bundle writer: stream the
 * contents via `writer` to a temporary file, fsync it, rename it into
 * place and fsync the directory.  Returns false (leaving any old file
 * at `path` intact) when the writer or any durability step fails.
 */
bool writeFileDurably(const std::string &path,
                      const std::function<bool(std::ostream &)> &writer);

/**
 * Precomputed next-use data carried in a capture bundle so warm runs
 * skip both the index build and the oracle's label sweeps: the 32-bit
 * next-use chain over the captured stream, and one label plane per
 * (window, near-window) pair the writing configuration studied (codes
 * as in NextUseIndex::Label).
 */
struct CaptureAuxPlane
{
    std::uint64_t window = 0;
    std::uint64_t nearWindow = 0;
    std::vector<std::uint8_t> codes;
};

/** See CaptureAuxPlane. */
struct CaptureAux
{
    std::vector<std::uint32_t> nextUse;
    std::vector<CaptureAuxPlane> planes;

    bool empty() const { return nextUse.empty() && planes.empty(); }
};

// --- CCAP v4 layout -----------------------------------------------------
//
// A bundle is one captured LLC stream plus caller-defined u64 metadata
// words (hierarchy statistics) plus optional next-use data, keyed by a
// caller-supplied configuration hash.  It is laid out so a warm load
// is a single mmap() with zero deserialization: a checksummed header
// region followed by page-aligned data sections holding native-layout
// data.
//
//   header (offset 0, little-endian):
//     magic "CCAP"        @0   | version u32 (=4)   @4
//     config_hash u64     @8   | file_bytes u64     @16
//     header_fnv u64      @24  (FNV-1a over [0, header_region_bytes)
//                               with this field zeroed)
//     record_count u64    @32  | epoch_records u64  @40
//     meta_count u32      @48  | num_cores u32      @52
//     name_len u32        @56  | plane_count u32    @60
//     trace_off u64       @64  | chain_off u64      @72
//     header_region_bytes u64 @80
//     record_stride u32   @88  (= sizeof(MemAccess) = 12)
//     reserved u32        @92
//   then, still inside the checksummed header region:
//     meta u64s | name bytes |
//     segment directory: seg_count x { trace_fnv u64 | chain_fnv u64 } |
//     plane descriptors: plane_count x { window u64 | near u64 |
//                                        codes_off u64 | codes_fnv u64 }
//   zero padding to the next page boundary, then the sections:
//     trace records  @trace_off  (record_count x 12, native MemAccess
//                                 layout: block u32 | pc u32 | core u8 |
//                                 is_write u8 | zero u16)
//     next-use chain @chain_off  (record_count x u32; chain_off = 0
//                                 means the bundle carries no chain)
//     plane codes    @codes_off  (record_count bytes per plane)
//   each section zero-padded to a page boundary; file_bytes = total.
//
// The trace is logically segmented into epochs of epoch_records
// records; seg_count = ceil(record_count / epoch_records).  Segments
// are stored contiguously and the directory carries one FNV per
// segment for the trace and chain sections.  With the 12-byte stride a
// record boundary meets a page boundary every lcm(12, 4096) = 12 KiB,
// i.e. every 1024 records; the default epoch (2^18 records, 3 MiB) is a
// multiple of that, so every default epoch boundary is page-aligned.
// Both loaders validate the header checksum and file_bytes against the
// actual size — cheap truncation/corruption detection that touches
// only header pages.  The data check (every segment and plane FNV,
// every record's core id, write flag, pad and block number) runs on
// every read-in load and, on mapped loads, only under -DCASIM_PARANOID;
// a mapped replay meets an out-of-range block number at the cache fill
// that refuses it.
//
// Any other version word, or another record stride, is a stale bundle
// from another format revision (v1-v3 included): it regenerates.

/**
 * The bundle version word (the u32 at file offset 4).  Any other
 * version is rejected as stale, so an old file simply regenerates.
 */
constexpr std::uint32_t kBundleVersion = 4;

/** Records per epoch segment unless the writer overrides it.  A
 *  multiple of 1024 = lcm(12, 4096)/12, so default epoch boundaries
 *  land on page boundaries within the trace section. */
constexpr std::uint64_t kDefaultEpochRecords = std::uint64_t{1} << 18;

/**
 * Zero-copy view of a bundle's precomputed next-use data: a borrowed
 * chain and label-plane code pointers, valid while `keepAlive` (the
 * bundle's bytes, mapped or read in) is held.  `nextUse` may be null
 * when the bundle carries no chain.
 */
struct CaptureAuxView
{
    struct Plane
    {
        std::uint64_t window = 0;
        std::uint64_t nearWindow = 0;
        const std::uint8_t *codes = nullptr;
    };

    const std::uint32_t *nextUse = nullptr;
    std::uint64_t count = 0;
    std::vector<Plane> planes;
    std::shared_ptr<const void> keepAlive;
};

/**
 * A decoded bundle: everything a warm load needs, as views over the
 * bundle's bytes (which the stream and the aux keep alive).
 */
struct MappedCaptureBundle
{
    std::vector<std::uint64_t> meta;
    Trace stream{"", 1};
    std::shared_ptr<const CaptureAuxView> aux;

    /** File bytes mapped; 0 when the bundle was read in. */
    std::uint64_t bytesMapped = 0;
};

/**
 * Serialize a capture bundle (see the format comment above).
 *
 * @param epoch_records Records per epoch segment; tests use tiny
 *                      epochs, production the default.
 * @return False on I/O failure.
 */
bool writeCaptureBundle(std::ostream &os, std::uint64_t config_hash,
                        const std::vector<std::uint64_t> &meta,
                        const Trace &stream,
                        const CaptureAux *aux = nullptr,
                        std::uint64_t epoch_records =
                            kDefaultEpochRecords);

/**
 * Map a bundle zero-copy: validates the header region (magic,
 * version, checksum, claimed size vs actual size, offset consistency,
 * config hash) without touching the data sections, then exposes the
 * trace as a view with a TracePager and the aux data as borrowed
 * pointers.  Under -DCASIM_PARANOID the data check runs too and a
 * mismatch is fatal.
 *
 * @return False with `error` set on failure: "cannot open" when the
 *         file cannot be opened, "config hash mismatch" / "unsupported
 *         bundle version" for staleness, anything else corruption.
 */
bool mapCaptureBundle(const std::string &path,
                      std::uint64_t expected_hash,
                      MappedCaptureBundle &out,
                      std::string *error = nullptr);

/**
 * Read a bundle whole into a page-aligned heap buffer and decode it
 * like mapCaptureBundle (no pager), then run the data check: every
 * segment, chain and plane checksum and every record's fields (core
 * id, block number below kBlockNumberLimit, write flag, zero pad).
 * The CASIM_NO_MMAP path; failures are reported as for the mapped
 * load.
 */
bool readInCaptureBundle(const std::string &path,
                         std::uint64_t expected_hash,
                         MappedCaptureBundle &out,
                         std::string *error = nullptr);

} // namespace casim

#endif // CASIM_TRACE_TRACE_IO_HH
