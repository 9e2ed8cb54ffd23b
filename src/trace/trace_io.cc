/**
 * @file
 * Implementation of the CCAP v4 bundle writer and its one decoder.
 */

#include "trace/trace_io.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/aligned_array.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "trace/mmap_file.hh"

namespace casim {

namespace {

constexpr char kBundleMagic[4] = {'C', 'C', 'A', 'P'};

/** On-disk alignment of the data sections (fixed, not the runtime
 *  page size, so files are portable between configurations). */
constexpr std::uint64_t kSectionAlign = 4096;

/** Fixed header bytes before the meta words. */
constexpr std::uint64_t kHeaderBytes = 96;

/** Record stride: the native MemAccess layout. */
constexpr std::uint32_t kRecordStride = sizeof(MemAccess);

std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) / align * align;
}

/** Sanity cap on bundle metadata words (stats, not bulk data). */
constexpr std::uint32_t kBundleMaxMeta = 65536;

/** Sanity cap on label planes per bundle (one per studied window). */
constexpr std::uint32_t kBundleMaxPlanes = 64;

/**
 * Records per write chunk.  The writer packs records through a flat
 * buffer; chunking bounds that buffer.
 */
constexpr std::uint64_t kChunkRecords = 1 << 16;

/**
 * fsync the file at `path` (best-effort; Linux allows fsync through a
 * read-only descriptor).  Returns false when the data may not have
 * reached stable storage.
 */
bool
syncFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

/** fsync the directory containing `path` so a rename is durable. */
void
syncParentDir(const std::string &path)
{
    const std::filesystem::path target(path);
    const std::filesystem::path dir = target.has_parent_path()
                                          ? target.parent_path()
                                          : std::filesystem::path(".");
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

/**
 * Write `contents` via writer() to a temporary file, fsync it, and
 * rename it into place: a crash at any point leaves either the old
 * file or none, never a torn one the next boot could map.
 */
bool
writeFileDurably(const std::string &path,
                 const std::function<bool(std::ostream &)> &writer)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path target(path);
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

    std::ostringstream suffix;
    suffix << ".tmp." << ::getpid();
    const std::string tmp = path + suffix.str();
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        bool ok = writer(os);
        os.flush();
        ok = ok && os.good();
        if (!ok) {
            os.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    if (!syncFile(tmp)) {
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    syncParentDir(path);
    return true;
}

// --- CCAP v4 -----------------------------------------------------------

namespace {

/** Decoded fixed header fields (see the format in the header). */
struct BundleHeader
{
    std::uint64_t configHash = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t headerFnv = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t epochRecords = 1;
    std::uint32_t metaCount = 0;
    std::uint32_t numCores = 0;
    std::uint32_t nameLen = 0;
    std::uint32_t planeCount = 0;
    std::uint64_t traceOff = 0;
    std::uint64_t chainOff = 0;
    std::uint64_t headerRegionBytes = 0;
    std::uint32_t recordStride = 0;

    /** Offset of the segment directory (after meta and name). */
    std::uint64_t
    dirOff() const
    {
        return kHeaderBytes + std::uint64_t{metaCount} * 8 + nameLen;
    }

    /** ceil(recordCount / epochRecords), without overflowing. */
    std::uint64_t
    segCount() const
    {
        return recordCount / epochRecords +
               (recordCount % epochRecords != 0 ? 1 : 0);
    }
};

/** One plane descriptor as stored in the header region. */
struct PlaneDesc
{
    std::uint64_t window = 0;
    std::uint64_t nearWindow = 0;
    std::uint64_t codesOff = 0;
    std::uint64_t codesFnv = 0;
};

void
storeBytes(char *base, std::uint64_t off, const void *src,
           std::size_t len)
{
    std::memcpy(base + off, src, len);
}

template <typename T>
T
loadScalar(const void *base, std::uint64_t off)
{
    T value;
    std::memcpy(&value, static_cast<const char *>(base) + off,
                sizeof(value));
    return value;
}

/** Pack records [from, from + n) into `buffer` with a zeroed pad. */
void
packRecords(const Trace &stream, std::uint64_t from, std::uint64_t n,
            std::vector<char> &buffer)
{
    buffer.resize(static_cast<std::size_t>(n) * kRecordStride);
    for (std::uint64_t i = 0; i < n; ++i) {
        MemAccess record = stream[static_cast<std::size_t>(from + i)];
        record.pad = 0;
        std::memcpy(&buffer[static_cast<std::size_t>(i) * kRecordStride],
                    &record, kRecordStride);
    }
}

/** The header-region FNV with the checksum field itself zeroed. */
std::uint64_t
headerRegionFnv(const void *region, std::uint64_t region_bytes)
{
    Fnv1a64 hasher;
    hasher.update(region, 24);
    hasher.update(std::uint64_t{0});
    hasher.update(static_cast<const char *>(region) + 32,
                  static_cast<std::size_t>(region_bytes - 32));
    return hasher.digest();
}

/** A bundle's decoded header region. */
struct BundleLayout
{
    BundleHeader h;
    std::vector<PlaneDesc> planes;
};

/**
 * Decode the header region of the bundle in [base, base + size) and
 * validate it: structure, checksum, config hash, and the section
 * layout against the canonical writer layout and `size`.  Touches only
 * header bytes.  Returns a failure string, or nullptr on success.
 */
const char *
decodeBundle(const std::uint8_t *base, std::uint64_t size,
             std::uint64_t expected_hash, BundleLayout &layout)
{
    if (size < kHeaderBytes)
        return "truncated bundle header";
    if (std::memcmp(base, kBundleMagic, sizeof(kBundleMagic)) != 0)
        return "bad bundle magic";
    if (loadScalar<std::uint32_t>(base, 4) != kBundleVersion)
        return "unsupported bundle version";
    BundleHeader &h = layout.h;
    h.configHash = loadScalar<std::uint64_t>(base, 8);
    h.fileBytes = loadScalar<std::uint64_t>(base, 16);
    h.headerFnv = loadScalar<std::uint64_t>(base, 24);
    h.recordCount = loadScalar<std::uint64_t>(base, 32);
    h.epochRecords = loadScalar<std::uint64_t>(base, 40);
    h.metaCount = loadScalar<std::uint32_t>(base, 48);
    h.numCores = loadScalar<std::uint32_t>(base, 52);
    h.nameLen = loadScalar<std::uint32_t>(base, 56);
    h.planeCount = loadScalar<std::uint32_t>(base, 60);
    h.traceOff = loadScalar<std::uint64_t>(base, 64);
    h.chainOff = loadScalar<std::uint64_t>(base, 72);
    h.headerRegionBytes = loadScalar<std::uint64_t>(base, 80);
    h.recordStride = loadScalar<std::uint32_t>(base, 88);

    // A different record stride is a layout this build cannot map; it
    // is staleness (another format revision), not corruption.
    if (h.recordStride != kRecordStride)
        return "unsupported bundle version";
    if (h.epochRecords == 0)
        return "bad bundle epoch";
    if (h.metaCount > kBundleMaxMeta)
        return "bad bundle meta count";
    if (h.planeCount > kBundleMaxPlanes)
        return "bad bundle plane count";
    if (h.nameLen > 4096)
        return "bad bundle name length";
    if (h.numCores == 0 || h.numCores > kMaxCores)
        return "bad bundle core count";
    if (h.headerRegionBytes < kHeaderBytes ||
        h.headerRegionBytes > size)
        return "truncated bundle header";
    if (headerRegionFnv(base, h.headerRegionBytes) != h.headerFnv)
        return "bundle header checksum mismatch";
    if (h.configHash != expected_hash)
        return "config hash mismatch";

    // Section layout.  Every claimed length is checked against the
    // actual size before anything is sized by it.
    if (h.fileBytes != size)
        return "bundle size mismatch";
    if (h.traceOff > size ||
        h.recordCount > (size - h.traceOff) / kRecordStride)
        return "truncated bundle payload";
    if (h.headerRegionBytes != h.dirOff() + h.segCount() * 16 +
                                   std::uint64_t{h.planeCount} * 32 ||
        h.traceOff != alignUp(h.headerRegionBytes, kSectionAlign))
        return "inconsistent bundle header";
    std::uint64_t next = alignUp(
        h.traceOff + h.recordCount * kRecordStride, kSectionAlign);
    if (h.chainOff != 0) {
        if (h.chainOff != next || h.chainOff > size ||
            h.recordCount > (size - h.chainOff) / 4)
            return "inconsistent bundle header";
        next = alignUp(h.chainOff + h.recordCount * 4, kSectionAlign);
    }
    const std::uint64_t desc_off = h.dirOff() + h.segCount() * 16;
    layout.planes.resize(h.planeCount);
    for (std::uint32_t p = 0; p < h.planeCount; ++p) {
        PlaneDesc &desc = layout.planes[p];
        const std::uint64_t at = desc_off + std::uint64_t{p} * 32;
        desc.window = loadScalar<std::uint64_t>(base, at);
        desc.nearWindow = loadScalar<std::uint64_t>(base, at + 8);
        desc.codesOff = loadScalar<std::uint64_t>(base, at + 16);
        desc.codesFnv = loadScalar<std::uint64_t>(base, at + 24);
        if (desc.codesOff != next || desc.codesOff > size ||
            h.recordCount > size - desc.codesOff)
            return "inconsistent bundle header";
        next = alignUp(desc.codesOff + h.recordCount, kSectionAlign);
    }
    if (next != size)
        return "bundle size mismatch";
    return nullptr;
}

/**
 * The data check: every trace and chain segment FNV, every plane FNV,
 * and every record's fields: core id below num_cores, block number
 * below kBlockNumberLimit, write flag 0 or 1, pad zero.  Reads the
 * records as bytes and touches every data page.  Returns a failure
 * string, or nullptr on success.
 */
const char *
checkBundleData(const std::uint8_t *base, const BundleLayout &layout)
{
    const BundleHeader &h = layout.h;
    const std::uint8_t *records = base + h.traceOff;
    const std::uint8_t *chain = base + h.chainOff;
    for (std::uint64_t s = 0; s < h.segCount(); ++s) {
        const std::uint64_t begin = s * h.epochRecords;
        const std::uint64_t end =
            std::min(h.recordCount, begin + h.epochRecords);
        const std::uint64_t dir = h.dirOff() + s * 16;
        if (fnv1a64(records + begin * kRecordStride,
                    (end - begin) * kRecordStride) !=
            loadScalar<std::uint64_t>(base, dir))
            return "bundle payload checksum mismatch";
        for (std::uint64_t i = begin; i < end; ++i) {
            const std::uint8_t *record = records + i * kRecordStride;
            if (record[offsetof(MemAccess, core)] >= h.numCores ||
                record[offsetof(MemAccess, isWrite)] > 1 ||
                loadScalar<std::uint16_t>(record,
                                          offsetof(MemAccess, pad)) != 0)
                return "bad bundle trace";
            if (loadScalar<std::uint32_t>(
                    record, offsetof(MemAccess, block)) >=
                kBlockNumberLimit)
                return "bundle address beyond the 32-bit block-number "
                       "range";
        }
        if (h.chainOff != 0 &&
            fnv1a64(chain + begin * 4, (end - begin) * 4) !=
                loadScalar<std::uint64_t>(base, dir + 8))
            return "bundle aux checksum mismatch";
    }
    for (const PlaneDesc &desc : layout.planes) {
        if (fnv1a64(base + desc.codesOff, h.recordCount) != desc.codesFnv)
            return "bundle aux checksum mismatch";
    }
    return nullptr;
}

/**
 * Lay `out` out as views over the decoded bundle at `base`, kept alive
 * by `owner`; `pager` (null for a bundle read into memory) pages the
 * trace section.
 */
void
viewBundle(const std::uint8_t *base, const BundleLayout &layout,
           const std::shared_ptr<const void> &owner,
           std::shared_ptr<const TracePager> pager, MappedCaptureBundle &out)
{
    const BundleHeader &h = layout.h;
    out.meta.resize(h.metaCount);
    for (std::uint32_t m = 0; m < h.metaCount; ++m)
        out.meta[m] = loadScalar<std::uint64_t>(
            base, kHeaderBytes + std::uint64_t{m} * 8);
    const std::string name(reinterpret_cast<const char *>(base) +
                               h.dirOff() - h.nameLen,
                           h.nameLen);
    out.stream = Trace::view(
        name, h.numCores,
        h.recordCount == 0
            ? nullptr
            : reinterpret_cast<const MemAccess *>(base + h.traceOff),
        static_cast<std::size_t>(h.recordCount), owner,
        std::move(pager));

    auto aux = std::make_shared<CaptureAuxView>();
    aux->count = h.recordCount;
    if (h.chainOff != 0)
        aux->nextUse =
            reinterpret_cast<const std::uint32_t *>(base + h.chainOff);
    aux->planes.reserve(layout.planes.size());
    for (const PlaneDesc &desc : layout.planes)
        aux->planes.push_back(
            {desc.window, desc.nearWindow, base + desc.codesOff});
    aux->keepAlive = owner;
    out.aux = std::move(aux);
}

/**
 * One section-aligned page of a bundle read into memory.  The empty
 * user-provided constructor keeps value-initialization from zeroing
 * bytes that read() fills anyway.
 */
struct alignas(kSectionAlign) BundlePage
{
    BundlePage() {}
    std::uint8_t bytes[kSectionAlign];
};

} // namespace

bool
writeCaptureBundle(std::ostream &os, std::uint64_t config_hash,
                   const std::vector<std::uint64_t> &meta,
                   const Trace &stream, const CaptureAux *aux,
                   std::uint64_t epoch_records)
{
    const std::uint64_t count = stream.size();
    const std::uint64_t epoch = epoch_records == 0 ? 1 : epoch_records;
    const std::uint64_t segs =
        count == 0 ? 0 : (count + epoch - 1) / epoch;
    casim_assert(meta.size() <= kBundleMaxMeta,
                 "too many bundle meta words");
    const std::string &name = stream.name();
    casim_assert(name.size() <= 4096, "bundle trace name too long");

    const std::uint32_t *chain = nullptr;
    std::uint32_t plane_count = 0;
    if (aux != nullptr) {
        if (!aux->nextUse.empty()) {
            casim_assert(aux->nextUse.size() == count,
                         "bundle aux chain length does not match trace");
            chain = aux->nextUse.data();
        }
        casim_assert(aux->planes.size() <= kBundleMaxPlanes,
                     "too many bundle label planes");
        for (const CaptureAuxPlane &plane : aux->planes)
            casim_assert(plane.codes.size() == count,
                         "bundle plane length does not match trace");
        plane_count = static_cast<std::uint32_t>(aux->planes.size());
    }

    // Section layout (every section page-aligned and zero-padded).
    const std::uint64_t header_region =
        kHeaderBytes + meta.size() * 8 + name.size() + segs * 16 +
        std::uint64_t{plane_count} * 32;
    const std::uint64_t trace_off =
        alignUp(header_region, kSectionAlign);
    const std::uint64_t trace_end =
        trace_off + count * kRecordStride;
    std::uint64_t next = alignUp(trace_end, kSectionAlign);
    std::uint64_t chain_off = 0;
    if (chain != nullptr) {
        chain_off = next;
        next = alignUp(chain_off + count * 4, kSectionAlign);
    }
    std::vector<std::uint64_t> codes_off(plane_count);
    for (std::uint32_t p = 0; p < plane_count; ++p) {
        codes_off[p] = next;
        next = alignUp(next + count, kSectionAlign);
    }
    const std::uint64_t file_bytes = next;

    // Per-segment checksums over the exact on-disk bytes (first pack
    // pass; the records are resident on the write side, so packing
    // twice trades a little CPU for not staging the whole section).
    std::vector<char> buffer;
    std::vector<std::uint64_t> trace_fnv(segs), chain_fnv(segs, 0);
    for (std::uint64_t s = 0; s < segs; ++s) {
        const std::uint64_t begin = s * epoch;
        const std::uint64_t end = std::min(count, begin + epoch);
        Fnv1a64 hasher;
        for (std::uint64_t from = begin; from < end;
             from += kChunkRecords) {
            const std::uint64_t n =
                std::min(kChunkRecords, end - from);
            packRecords(stream, from, n, buffer);
            hasher.update(buffer.data(),
                          static_cast<std::size_t>(n) *
                              kRecordStride);
        }
        trace_fnv[s] = hasher.digest();
        if (chain != nullptr)
            chain_fnv[s] = fnv1a64(chain + begin, (end - begin) * 4);
    }

    // Header region, zero-padded to the first section.
    std::string header(static_cast<std::size_t>(trace_off), '\0');
    char *base = header.data();
    std::memcpy(base, kBundleMagic, sizeof(kBundleMagic));
    const std::uint32_t version = kBundleVersion;
    storeBytes(base, 4, &version, 4);
    storeBytes(base, 8, &config_hash, 8);
    storeBytes(base, 16, &file_bytes, 8);
    storeBytes(base, 32, &count, 8);
    storeBytes(base, 40, &epoch, 8);
    const auto meta_count = static_cast<std::uint32_t>(meta.size());
    const auto name_len = static_cast<std::uint32_t>(name.size());
    const std::uint32_t num_cores = stream.numCores();
    storeBytes(base, 48, &meta_count, 4);
    storeBytes(base, 52, &num_cores, 4);
    storeBytes(base, 56, &name_len, 4);
    storeBytes(base, 60, &plane_count, 4);
    storeBytes(base, 64, &trace_off, 8);
    storeBytes(base, 72, &chain_off, 8);
    storeBytes(base, 80, &header_region, 8);
    storeBytes(base, 88, &kRecordStride, 4);
    std::uint64_t off = kHeaderBytes;
    for (const std::uint64_t word : meta) {
        storeBytes(base, off, &word, 8);
        off += 8;
    }
    std::memcpy(base + off, name.data(), name.size());
    off += name.size();
    for (std::uint64_t s = 0; s < segs; ++s) {
        storeBytes(base, off, &trace_fnv[s], 8);
        storeBytes(base, off + 8, &chain_fnv[s], 8);
        off += 16;
    }
    for (std::uint32_t p = 0; p < plane_count; ++p) {
        const CaptureAuxPlane &plane = aux->planes[p];
        const std::uint64_t codes_fnv =
            fnv1a64(plane.codes.data(), plane.codes.size());
        storeBytes(base, off, &plane.window, 8);
        storeBytes(base, off + 8, &plane.nearWindow, 8);
        storeBytes(base, off + 16, &codes_off[p], 8);
        storeBytes(base, off + 24, &codes_fnv, 8);
        off += 32;
    }
    casim_assert(off == header_region, "bundle header layout mismatch");
    const std::uint64_t header_fnv = headerRegionFnv(base, header_region);
    storeBytes(base, 24, &header_fnv, 8);
    os.write(header.data(),
             static_cast<std::streamsize>(header.size()));

    // Data sections (second pack pass for the records).
    std::uint64_t cur = trace_off;
    const std::string zeros(kSectionAlign, '\0');
    const auto padTo = [&](std::uint64_t target) {
        while (cur < target) {
            const std::uint64_t n =
                std::min<std::uint64_t>(target - cur, zeros.size());
            os.write(zeros.data(), static_cast<std::streamsize>(n));
            cur += n;
        }
    };
    for (std::uint64_t from = 0; from < count;
         from += kChunkRecords) {
        const std::uint64_t n = std::min(kChunkRecords, count - from);
        packRecords(stream, from, n, buffer);
        os.write(buffer.data(),
                 static_cast<std::streamsize>(
                     static_cast<std::size_t>(n) * kRecordStride));
        cur += n * kRecordStride;
    }
    if (chain != nullptr) {
        padTo(chain_off);
        os.write(reinterpret_cast<const char *>(chain),
                 static_cast<std::streamsize>(count * 4));
        cur += count * 4;
    }
    for (std::uint32_t p = 0; p < plane_count; ++p) {
        padTo(codes_off[p]);
        const CaptureAuxPlane &plane = aux->planes[p];
        os.write(reinterpret_cast<const char *>(plane.codes.data()),
                 static_cast<std::streamsize>(plane.codes.size()));
        cur += plane.codes.size();
    }
    padTo(file_bytes);
    return os.good();
}

bool
mapCaptureBundle(const std::string &path,
                 std::uint64_t expected_hash,
                 MappedCaptureBundle &out, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = what;
        return false;
    };

    std::string map_error;
    const std::shared_ptr<const MappedFile> file =
        MappedFile::map(path, &map_error);
    if (file == nullptr)
        return fail(map_error);
    BundleLayout layout;
    if (const char *what =
            decodeBundle(file->data(), file->size(), expected_hash, layout))
        return fail(what);
#ifdef CASIM_PARANOID
    // Paranoid builds run the read-in path's data check here too,
    // touching every page, and treat a mismatch as fatal.
    if (const char *what = checkBundleData(file->data(), layout))
        casim_panic("bundle ", path, ": ", what);
#endif

    file->adviseSequential();
    const BundleHeader &h = layout.h;
    MappedCaptureBundle decoded;
    viewBundle(file->data(), layout, file,
           std::make_shared<const TracePager>(
               file, static_cast<std::size_t>(h.traceOff),
               static_cast<std::size_t>(h.recordCount), kRecordStride,
               static_cast<std::size_t>(h.epochRecords)),
           decoded);
    decoded.bytesMapped = file->size();
    out = std::move(decoded);
    if (error != nullptr)
        error->clear();
    return true;
}

bool
readInCaptureBundle(const std::string &path,
                    std::uint64_t expected_hash,
                    MappedCaptureBundle &out, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = what;
        return false;
    };

    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return fail("cannot open");
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail("cannot stat");
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    auto pages = std::make_shared<AlignedArray<BundlePage>>(
        static_cast<std::size_t>(alignUp(size, kSectionAlign) /
                                 kSectionAlign));
    auto *base = reinterpret_cast<std::uint8_t *>(pages->data());
    std::uint64_t got = 0;
    while (got < size) {
        const ::ssize_t n = ::read(fd, base + got,
                                   static_cast<std::size_t>(size - got));
        if (n <= 0)
            break;
        got += static_cast<std::uint64_t>(n);
    }
    ::close(fd);
    if (got != size)
        return fail("cannot read bundle");

    BundleLayout layout;
    if (const char *what = decodeBundle(base, size, expected_hash, layout))
        return fail(what);
    if (const char *what = checkBundleData(base, layout))
        return fail(what);
    MappedCaptureBundle decoded;
    viewBundle(base, layout, pages, nullptr, decoded);
    out = std::move(decoded);
    if (error != nullptr)
        error->clear();
    return true;
}

} // namespace casim
