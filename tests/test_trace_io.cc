/**
 * @file
 * Tests for the CCAP v3 bundle format through both of its entry
 * points: round trips of the stream, metadata and next-use data, and
 * rejection of malformed files — each defect patched into an otherwise
 * valid bundle, resealed so that only the patched field is wrong.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/hash.hh"
#include "common/rng.hh"
#include "sim/capture_cache.hh"
#include "trace/next_use.hh"
#include "trace/trace_io.hh"

namespace casim {
namespace {

namespace fs = std::filesystem;

/** Signature shared by mapCaptureBundleV3 and readInCaptureBundleV3. */
using LoadFn = bool (*)(const std::string &, std::uint64_t,
                        MappedCaptureBundle &, std::string *);

/** Both ways of loading a bundle; most properties must hold for each. */
const std::pair<const char *, LoadFn> kEntryPoints[] = {
    {"map", &mapCaptureBundleV3},
    {"read", &readInCaptureBundleV3},
};

/** A scratch file path removed at scope exit. */
class ScratchFile
{
  public:
    ScratchFile()
        : path_((fs::temp_directory_path() /
                 ("casim_trace_io_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter_++) + ".ccap"))
                    .string())
    {
    }

    ~ScratchFile()
    {
        std::error_code ec;
        fs::remove(path_, ec);
    }

    const std::string &str() const { return path_; }

  private:
    static int counter_;
    std::string path_;
};

int ScratchFile::counter_ = 0;

Trace
makeTrace(unsigned cores = 4, int count = 500)
{
    Rng rng(404);
    Trace trace("roundtrip", cores);
    for (int i = 0; i < count; ++i) {
        trace.append(rng.below(1 << 16) * kBlockBytes,
                     0x400 + rng.below(32) * 4,
                     static_cast<CoreId>(rng.below(cores)),
                     rng.chance(0.3));
    }
    return trace;
}

/** A next-use chain plus one label plane per window in `windows`. */
CaptureAux
makeAux(const Trace &trace, std::initializer_list<SeqNo> windows)
{
    CaptureAux aux;
    const NextUseIndex index(trace);
    aux.nextUse.assign(index.chainData(),
                       index.chainData() + index.size());
    for (const SeqNo window : windows) {
        const auto plane = index.computeLabelPlane(window, window);
        aux.planes.push_back(
            {window, window,
             std::vector<std::uint8_t>(plane.codes.begin(),
                                       plane.codes.end())});
    }
    return aux;
}

/** The bytes of a v3 bundle as the writer produces them. */
std::string
bundleBytes(std::uint64_t hash, const Trace &trace,
            const CaptureAux *aux = nullptr,
            const std::vector<std::uint64_t> &meta = {},
            std::uint64_t epoch = kDefaultEpochRecords)
{
    std::ostringstream os(std::ios::binary);
    EXPECT_TRUE(writeCaptureBundleV3(os, hash, meta, trace, aux, epoch));
    return std::move(os).str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good());
}

std::uint64_t
getU64(const std::string &bytes, std::uint64_t off)
{
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + off, sizeof(value));
    return value;
}

std::uint32_t
getU32(const std::string &bytes, std::uint64_t off)
{
    std::uint32_t value = 0;
    std::memcpy(&value, bytes.data() + off, sizeof(value));
    return value;
}

void
putU64(std::string &bytes, std::uint64_t off, std::uint64_t value)
{
    std::memcpy(bytes.data() + off, &value, sizeof(value));
}

void
putU32(std::string &bytes, std::uint64_t off, std::uint32_t value)
{
    std::memcpy(bytes.data() + off, &value, sizeof(value));
}

/**
 * Recompute the checksums of a patched v3 bundle image: the trace and
 * chain segment FNVs and the plane FNVs (where the claimed sections
 * lie inside the image), then the header FNV (where the claimed header
 * region does).  Offsets follow the layout in trace_io.hh.
 */
void
resealV3(std::string &bytes)
{
    const std::uint64_t size = bytes.size();
    const std::uint64_t count = getU64(bytes, 32);
    const std::uint64_t epoch = getU64(bytes, 40);
    const std::uint64_t trace_off = getU64(bytes, 64);
    const std::uint64_t chain_off = getU64(bytes, 72);
    const std::uint64_t region = getU64(bytes, 80);
    const std::uint64_t dir =
        96 + std::uint64_t{getU32(bytes, 48)} * 8 + getU32(bytes, 56);
    const std::uint32_t planes = getU32(bytes, 60);
    const auto fnv = [&](std::uint64_t off, std::uint64_t len) {
        return fnv1a64(bytes.data() + off, len);
    };

    if (epoch != 0 && trace_off <= size &&
        count <= (size - trace_off) / sizeof(MemAccess)) {
        const std::uint64_t segs = (count + epoch - 1) / epoch;
        for (std::uint64_t s = 0; s < segs; ++s) {
            const std::uint64_t begin = s * epoch;
            const std::uint64_t end = std::min(count, begin + epoch);
            putU64(bytes, dir + s * 16,
                   fnv(trace_off + begin * sizeof(MemAccess),
                       (end - begin) * sizeof(MemAccess)));
            if (chain_off != 0 && chain_off + count * 4 <= size)
                putU64(bytes, dir + s * 16 + 8,
                       fnv(chain_off + begin * 4, (end - begin) * 4));
        }
        for (std::uint32_t p = 0; p < planes; ++p) {
            const std::uint64_t at = dir + segs * 16 + p * 32;
            const std::uint64_t codes_off = getU64(bytes, at + 16);
            if (codes_off + count <= size)
                putU64(bytes, at + 24, fnv(codes_off, count));
        }
    }
    if (region >= 32 && region <= size) {
        putU64(bytes, 24, 0);
        putU64(bytes, 24, fnv(0, region));
    }
}

/** Expect both entry points to reject `bytes` with `want`. */
void
expectBothReject(const std::string &bytes, std::uint64_t hash,
                 const std::string &want)
{
    ScratchFile file;
    writeBytes(file.str(), bytes);
    for (const auto &[entry, load] : kEntryPoints) {
        SCOPED_TRACE(entry);
        MappedCaptureBundle out;
        std::string error;
        EXPECT_FALSE(load(file.str(), hash, out, &error));
        EXPECT_EQ(error, want);
    }
}

void
expectSameRecords(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.numCores(), b.numCores());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr, b[i].addr) << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << i;
        ASSERT_EQ(a[i].core, b[i].core) << i;
        ASSERT_EQ(a[i].isWrite, b[i].isWrite) << i;
    }
}

/** Expect the loaded aux view to carry exactly `aux`. */
void
expectSameAux(const CaptureAuxView &view, const CaptureAux &aux)
{
    if (aux.nextUse.empty()) {
        EXPECT_EQ(view.nextUse, nullptr);
    } else {
        ASSERT_NE(view.nextUse, nullptr);
        ASSERT_EQ(view.count, aux.nextUse.size());
        EXPECT_EQ(std::memcmp(view.nextUse, aux.nextUse.data(),
                              aux.nextUse.size() * 4),
                  0);
    }
    ASSERT_EQ(view.planes.size(), aux.planes.size());
    for (std::size_t p = 0; p < aux.planes.size(); ++p) {
        EXPECT_EQ(view.planes[p].window, aux.planes[p].window);
        EXPECT_EQ(view.planes[p].nearWindow, aux.planes[p].nearWindow);
        EXPECT_EQ(std::memcmp(view.planes[p].codes,
                              aux.planes[p].codes.data(),
                              aux.planes[p].codes.size()),
                  0);
    }
}

/** Write `bytes` and expect both entry points to return them intact. */
void
expectRoundTrip(const std::string &bytes, std::uint64_t hash,
                const Trace &trace, const CaptureAux &aux,
                const std::vector<std::uint64_t> &meta)
{
    ScratchFile file;
    writeBytes(file.str(), bytes);
    for (const auto &[entry, load] : kEntryPoints) {
        SCOPED_TRACE(entry);
        MappedCaptureBundle out;
        std::string error;
        ASSERT_TRUE(load(file.str(), hash, out, &error)) << error;
        EXPECT_EQ(out.meta, meta);
        expectSameRecords(trace, out.stream);
        ASSERT_NE(out.aux, nullptr);
        expectSameAux(*out.aux, aux);
    }
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    const Trace original = makeTrace();
    const CaptureAux aux = makeAux(original, {64});
    const std::vector<std::uint64_t> meta{7, 8, 9};
    expectRoundTrip(bundleBytes(1, original, &aux, meta, 100), 1,
                    original, aux, meta);
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const Trace original("empty", 2);
    expectRoundTrip(bundleBytes(1, original), 1, original, {}, {});
}

TEST(TraceIo, RejectsBadMagic)
{
    std::string bytes = bundleBytes(1, makeTrace(2, 10));
    std::memcpy(bytes.data(), "NOPE", 4);
    expectBothReject(bytes, 1, "bad bundle magic");
    // Shorter than the fixed header: nothing past the size is read.
    expectBothReject("NOPE this is not a trace", 1,
                     "truncated bundle header");
}

TEST(TraceIo, RejectsTruncatedStream)
{
    // Cut the file in the middle of the records.
    const std::string full = bundleBytes(1, makeTrace(2, 1000));
    expectBothReject(full.substr(0, full.size() / 2), 1,
                     "bundle size mismatch");
}

TEST(TraceIo, RejectsCorruptCoreId)
{
    // A record whose core is out of range, under checksums that are
    // otherwise valid: only the read-in data check can see it.
    Trace original("t", 2);
    original.append(0x1000, 0x400, 1, false);
    std::string bytes = bundleBytes(1, original);
    bytes[getU64(bytes, 64) + offsetof(MemAccess, core)] = 9;
    resealV3(bytes);

    ScratchFile file;
    writeBytes(file.str(), bytes);
    MappedCaptureBundle out;
    std::string error;
    EXPECT_FALSE(readInCaptureBundleV3(file.str(), 1, out, &error));
    EXPECT_EQ(error, "bad bundle trace");

    // A core equal to num_cores is out of range too.
    bytes[getU64(bytes, 64) + offsetof(MemAccess, core)] = 2;
    resealV3(bytes);
    writeBytes(file.str(), bytes);
    EXPECT_FALSE(readInCaptureBundleV3(file.str(), 1, out, &error));
    EXPECT_EQ(error, "bad bundle trace");
}

TEST(TraceIo, RejectsOversizedCountWithoutAllocating)
{
    // Header fields that size the meta words, the name and the header
    // region must be checked before anything is read through them.
    const std::string bytes = bundleBytes(1, makeTrace(2, 10));
    std::string region = bytes;
    putU64(region, 80, std::uint64_t{1} << 60);
    expectBothReject(region, 1, "truncated bundle header");
    std::string meta = bytes;
    putU32(meta, 48, 0xffffffffu);
    expectBothReject(meta, 1, "bad bundle meta count");
    std::string planes = bytes;
    putU32(planes, 60, 0xffffffffu);
    expectBothReject(planes, 1, "bad bundle plane count");
}

TEST(TraceIo, RejectsCountLargerThanRemainingBytes)
{
    // Off by even one record: 512 records fill their section exactly
    // (512 x 24 bytes is a whole number of pages), so a claim of 513
    // runs past the end of the file.
    std::string bytes = bundleBytes(1, makeTrace(2, 512));
    ASSERT_EQ(getU64(bytes, 16), bytes.size());
    ASSERT_EQ(getU64(bytes, 64) + 512 * sizeof(MemAccess), bytes.size());
    putU64(bytes, 32, 513);
    resealV3(bytes);
    expectBothReject(bytes, 1, "truncated bundle payload");
}

TEST(TraceIo, RejectsGarbageNameLength)
{
    // A giant name length fails the header validation before any
    // name-sized read.
    std::string bytes = bundleBytes(1, makeTrace(2, 1));
    putU32(bytes, 56, 0xffffffffu);
    expectBothReject(bytes, 1, "bad bundle name length");
}

TEST(TraceIo, RandomSizedTracesRoundTrip)
{
    // Round-trip property over a spread of sizes, core counts and
    // epoch sizes; the layout checks must never reject valid data.
    Rng rng(77);
    for (int iter = 0; iter < 12; ++iter) {
        const unsigned cores =
            static_cast<unsigned>(1 + rng.below(8));
        const int count = static_cast<int>(rng.below(400));
        const std::uint64_t epoch = 1 + rng.below(500);
        const Trace original = makeTrace(cores, count);
        const CaptureAux aux =
            count == 0 ? CaptureAux{} : makeAux(original, {16, 256});
        SCOPED_TRACE(iter);
        expectRoundTrip(bundleBytes(3, original, &aux, {}, epoch), 3,
                        original, aux, {});
    }
}

TEST(TraceIo, FileRoundTrip)
{
    // The capture cache's own save/load, as example_trace_tool uses
    // them: a fixed hash of 0, no next-use data.
    CapturedWorkload captured;
    captured.stream = makeTrace(8, 2000);
    captured.demandAccesses = 12345;
    captured.hierarchy.sharing.sharerHits = {1, 2, 3};
    ScratchFile file;
    CaptureCache cache;
    ASSERT_TRUE(cache.save(file.str(), 0, captured));

    CapturedWorkload loaded;
    std::string why;
    ASSERT_TRUE(cache.load(file.str(), 0, loaded, &why)) << why;
    expectSameRecords(captured.stream, loaded.stream);
    EXPECT_EQ(loaded.demandAccesses, captured.demandAccesses);
    EXPECT_EQ(loaded.hierarchy.sharing.sharerHits,
              captured.hierarchy.sharing.sharerHits);
    EXPECT_EQ(loaded.nextUseAux, nullptr);
    EXPECT_EQ(loaded.stream.footprintBlocks(),
              captured.stream.footprintBlocks());
    EXPECT_EQ(cache.counter("hits"), 1u);

    // A missing file is a cold miss, not corruption.
    EXPECT_FALSE(cache.load(file.str() + ".missing", 0, loaded, &why));
    EXPECT_EQ(why, "cannot open");
    EXPECT_EQ(cache.counter("cold_misses"), 1u);
    EXPECT_EQ(cache.counter("corrupt_misses"), 0u);
}

TEST(CaptureBundle, RoundTripsMetaAndStream)
{
    Rng rng(5);
    Trace stream("bundle", 4);
    for (int i = 0; i < 300; ++i)
        stream.append(rng.below(1 << 12) * kBlockBytes,
                      0x400 + rng.below(16) * 4,
                      static_cast<CoreId>(rng.below(4)),
                      rng.chance(0.25));
    const std::vector<std::uint64_t> meta{1, 2, 3, 0xdeadbeefULL};
    expectRoundTrip(bundleBytes(0x1234, stream, nullptr, meta), 0x1234,
                    stream, {}, meta);
}

TEST(CaptureBundle, RoundTripsAuxSection)
{
    Rng rng(6);
    Trace stream("bundle", 4);
    for (int i = 0; i < 200; ++i)
        stream.append(rng.below(64) * kBlockBytes, 0x400,
                      static_cast<CoreId>(rng.below(4)),
                      rng.chance(0.5));
    const CaptureAux aux = makeAux(stream, {50, 500});
    expectRoundTrip(bundleBytes(0x77, stream, &aux), 0x77, stream, aux,
                    {});

    // Planes without a chain, and a bundle with neither.
    CaptureAux planes_only = aux;
    planes_only.nextUse.clear();
    expectRoundTrip(bundleBytes(0x77, stream, &planes_only), 0x77,
                    stream, planes_only, {});
    expectRoundTrip(bundleBytes(0x77, stream), 0x77, stream, {}, {});
}

TEST(CaptureBundle, RejectsWrongConfigHash)
{
    Trace stream("bundle", 2);
    stream.append(0x1000, 0x400, 0, false);
    expectBothReject(bundleBytes(0x1111, stream), 0x2222,
                     "config hash mismatch");
}

TEST(CaptureBundle, RejectsOversizedPayloadClaimWithoutAllocating)
{
    // A header that claims ~10^18 records, under a valid header
    // checksum, must be rejected from the claim/file-size mismatch
    // before anything is sized by the claim.
    Trace stream("bundle", 2);
    stream.append(0x1000, 0x400, 0, false);
    std::string bytes = bundleBytes(1, stream);
    putU64(bytes, 32, std::uint64_t{1} << 60);
    resealV3(bytes);
    expectBothReject(bytes, 1, "truncated bundle payload");
}

} // namespace
} // namespace casim
