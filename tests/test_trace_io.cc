/**
 * @file
 * Tests for the CCAP v4 bundle format through both of its entry
 * points: round trips of the stream, metadata and next-use data, and
 * rejection of malformed files — each defect patched into an otherwise
 * valid bundle, resealed so that only the patched field is wrong —
 * and deterministic mutation fuzzing of the decoder and the data check
 * (BundleFuzz).
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/hash.hh"
#include "common/rng.hh"
#include "sim/capture_cache.hh"
#include "sim/experiment.hh"
#include "trace/next_use.hh"
#include "trace/trace_io.hh"

namespace casim {
namespace {

namespace fs = std::filesystem;

/** Signature shared by mapCaptureBundle and readInCaptureBundle. */
using LoadFn = bool (*)(const std::string &, std::uint64_t,
                        MappedCaptureBundle &, std::string *);

/** Both ways of loading a bundle; most properties must hold for each. */
const std::pair<const char *, LoadFn> kEntryPoints[] = {
    {"map", &mapCaptureBundle},
    {"read", &readInCaptureBundle},
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

/** Config hash of the fuzz corpus. */
constexpr std::uint64_t kFuzzHash = 0xf0220000;

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

/** The bytes of a bundle as the writer produces them. */
std::string
bundleBytes(std::uint64_t hash, const Trace &trace,
            const CaptureAux *aux = nullptr,
            const std::vector<std::uint64_t> &meta = {},
            std::uint64_t epoch = kDefaultEpochRecords)
{
    std::ostringstream os(std::ios::binary);
    EXPECT_TRUE(writeCaptureBundle(os, hash, meta, trace, aux, epoch));
    return std::move(os).str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good());
}

// The accessors below ignore bytes outside `bytes`: a read there is
// 0 and a write is dropped, so they are safe on truncated and mutated
// images.

std::uint64_t
getU64(const std::string &bytes, std::uint64_t off)
{
    std::uint64_t value = 0;
    if (off <= bytes.size() && bytes.size() - off >= sizeof(value))
        std::memcpy(&value, bytes.data() + off, sizeof(value));
    return value;
}

std::uint32_t
getU32(const std::string &bytes, std::uint64_t off)
{
    std::uint32_t value = 0;
    if (off <= bytes.size() && bytes.size() - off >= sizeof(value))
        std::memcpy(&value, bytes.data() + off, sizeof(value));
    return value;
}

void
putU64(std::string &bytes, std::uint64_t off, std::uint64_t value)
{
    if (off <= bytes.size() && bytes.size() - off >= sizeof(value))
        std::memcpy(bytes.data() + off, &value, sizeof(value));
}

void
putU32(std::string &bytes, std::uint64_t off, std::uint32_t value)
{
    if (off <= bytes.size() && bytes.size() - off >= sizeof(value))
        std::memcpy(bytes.data() + off, &value, sizeof(value));
}

/**
 * Recompute the checksums of a patched bundle image: the trace and
 * chain segment FNVs and the plane FNVs (where the claimed sections
 * lie inside the image), then the header FNV (where the claimed header
 * region does).  Offsets follow the layout in trace_io.hh.
 */
void
reseal(std::string &bytes)
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
            if (chain_off != 0 && chain_off <= size &&
                count <= (size - chain_off) / 4)
                putU64(bytes, dir + s * 16 + 8,
                       fnv(chain_off + begin * 4, (end - begin) * 4));
        }
        for (std::uint64_t p = 0; p < planes; ++p) {
            const std::uint64_t at = dir + segs * 16 + p * 32;
            if (at >= size)
                break;
            const std::uint64_t codes_off = getU64(bytes, at + 16);
            if (codes_off <= size && count <= size - codes_off)
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
        ASSERT_EQ(a[i].block, b[i].block) << i;
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
    reseal(bytes);

    ScratchFile file;
    writeBytes(file.str(), bytes);
    MappedCaptureBundle out;
    std::string error;
    EXPECT_FALSE(readInCaptureBundle(file.str(), 1, out, &error));
    EXPECT_EQ(error, "bad bundle trace");

    // A core equal to num_cores is out of range too.
    bytes[getU64(bytes, 64) + offsetof(MemAccess, core)] = 2;
    reseal(bytes);
    writeBytes(file.str(), bytes);
    EXPECT_FALSE(readInCaptureBundle(file.str(), 1, out, &error));
    EXPECT_EQ(error, "bad bundle trace");
}

TEST(TraceIo, RejectsNonCanonicalRecordBytes)
{
    // A write flag other than 0/1 or a nonzero pad is no record the
    // writer produces; the read-in data check refuses both.
    Trace original("t", 2);
    original.append(0x1000, 0x400, 1, false);
    const std::string clean = bundleBytes(1, original);
    const std::uint64_t record = getU64(clean, 64);
    ASSERT_EQ(clean[record + offsetof(MemAccess, pad)], 0);
    ASSERT_EQ(clean[record + offsetof(MemAccess, pad) + 1], 0);
    for (const std::size_t at : {offsetof(MemAccess, isWrite),
                                 offsetof(MemAccess, pad),
                                 offsetof(MemAccess, pad) + 1}) {
        SCOPED_TRACE(at);
        std::string bytes = clean;
        bytes[record + at] = 2;
        reseal(bytes);
        ScratchFile file;
        writeBytes(file.str(), bytes);
        MappedCaptureBundle out;
        std::string error;
        EXPECT_FALSE(readInCaptureBundle(file.str(), 1, out, &error));
        EXPECT_EQ(error, "bad bundle trace");
    }
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
    // Off by even one record: 1024 records fill their section exactly
    // (1024 x 12 bytes = 12 KiB, a whole number of pages), so a claim
    // of 1025 runs past the end of the file.
    std::string bytes = bundleBytes(1, makeTrace(2, 1024));
    ASSERT_EQ(getU64(bytes, 16), bytes.size());
    ASSERT_EQ(getU64(bytes, 64) + 1024 * sizeof(MemAccess), bytes.size());
    putU64(bytes, 32, 1025);
    reseal(bytes);
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
    reseal(bytes);
    expectBothReject(bytes, 1, "truncated bundle payload");
}

// ---------------------------------------------------------------------
// BundleFuzz: deterministic mutation fuzzing of the decoder and the
// data check.  Every mutant of a valid bundle must load as a valid
// bundle or be refused with a diagnostic; under ASan/UBSan a crash or
// an out-of-bounds read fails the run.
// ---------------------------------------------------------------------

/** The first `count` LLC references of a small canneal capture. */
Trace
smallCapture(std::size_t count)
{
    StudyConfig study;
    study.workload.threads = 4;
    study.workload.scale = 0.01;
    CaptureCache cache;
    const CapturedWorkload wl = captureWorkload("canneal", study, cache);
    Trace prefix("canneal.llc", wl.stream.numCores());
    for (std::size_t i = 0; i < std::min(count, wl.stream.size()); ++i)
        prefix.append(wl.stream[i]);
    return prefix;
}

/** One valid bundle to mutate. */
struct FuzzSeed
{
    const char *name;
    std::string bytes;
};

/**
 * Bundles of one capture with and without a chain and planes, over one
 * and several trace segments.
 */
std::vector<FuzzSeed>
fuzzCorpus(const Trace &trace)
{
    const CaptureAux full = makeAux(trace, {64, 1024});
    CaptureAux planes_only = full;
    planes_only.nextUse.clear();
    CaptureAux chain_only = full;
    chain_only.planes.clear();
    return {
        {"bare", bundleBytes(kFuzzHash, trace)},
        {"full", bundleBytes(kFuzzHash, trace, &full, {5, 6, 7})},
        {"planes, 256-record epochs",
         bundleBytes(kFuzzHash, trace, &planes_only, {}, 256)},
        {"chain, 1000-record epochs",
         bundleBytes(kFuzzHash, trace, &chain_only, {1}, 1000)},
    };
}

/** Offsets of the fixed header's words (see trace_io.hh). */
struct HeaderWord
{
    std::uint64_t off;
    unsigned bytes;
};
constexpr HeaderWord kHeaderWords[] = {
    {4, 4},  {8, 8},  {16, 8}, {32, 8}, {40, 8}, {48, 4}, {52, 4},
    {56, 4}, {60, 4}, {64, 8}, {72, 8}, {80, 8}, {88, 4},
};

/** A value for a header word: edge cases, near misses and noise. */
std::uint64_t
fuzzValue(Rng &rng, std::uint64_t old, std::uint64_t size)
{
    switch (rng.below(9)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return old + 1;
      case 3: return old - 1;
      case 4: return size;
      case 5: return size + rng.range(1, 4096);
      case 6: return std::uint64_t{1} << rng.below(64);
      case 7: return ~std::uint64_t{0};
      default: return rng.next();
    }
}

void
putWord(std::string &bytes, const HeaderWord &word, std::uint64_t value)
{
    if (word.bytes == 8)
        putU64(bytes, word.off, value);
    else
        putU32(bytes, word.off, static_cast<std::uint32_t>(value));
}

/** The mutation kinds; each mutant applies one. */
enum class Mutation
{
    BitFlips,
    Truncate,
    HeaderWord,
    RecordCount,
    SectionOffset,
    RecordStride24,
    Count
};

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::BitFlips: return "bit flips";
      case Mutation::Truncate: return "truncation";
      case Mutation::HeaderWord: return "header word";
      case Mutation::RecordCount: return "record_count";
      case Mutation::SectionOffset: return "section offset";
      case Mutation::RecordStride24: return "record_stride 24";
      default: return "?";
    }
}

/** Apply `m` to a copy of `seed`, drawing its details from `rng`. */
std::string
mutate(const std::string &seed, Mutation m, Rng &rng)
{
    std::string bytes = seed;
    const std::uint64_t size = bytes.size();
    const std::uint64_t region = getU64(seed, 80);
    switch (m) {
      case Mutation::BitFlips: {
        // Half the flips land in the header region, where every byte
        // is structure; the rest anywhere.
        const std::uint64_t flips = rng.range(1, 8);
        for (std::uint64_t f = 0; f < flips; ++f) {
            const std::uint64_t at =
                rng.chance(0.5) ? rng.below(region) : rng.below(size);
            bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8)));
        }
        break;
      }
      case Mutation::Truncate:
        bytes.resize(rng.chance(0.5) ? rng.below(region + 1)
                                     : rng.below(size));
        break;
      case Mutation::HeaderWord: {
        const HeaderWord &word =
            kHeaderWords[rng.below(std::size(kHeaderWords))];
        const std::uint64_t old = word.bytes == 8
                                      ? getU64(bytes, word.off)
                                      : getU32(bytes, word.off);
        putWord(bytes, word, fuzzValue(rng, old, size));
        break;
      }
      case Mutation::RecordCount:
        putU64(bytes, 32, fuzzValue(rng, getU64(bytes, 32), size));
        break;
      case Mutation::SectionOffset: {
        // trace_off, chain_off, header_region_bytes or a plane's
        // codes_off.
        std::vector<std::uint64_t> offsets{64, 72, 80};
        const std::uint64_t count = getU64(bytes, 32);
        const std::uint64_t epoch = getU64(bytes, 40);
        const std::uint64_t desc =
            96 + std::uint64_t{getU32(bytes, 48)} * 8 + getU32(bytes, 56) +
            (count + epoch - 1) / epoch * 16;
        for (std::uint32_t p = 0; p < getU32(bytes, 60); ++p)
            offsets.push_back(desc + p * 32 + 16);
        const std::uint64_t at = offsets[rng.below(offsets.size())];
        putU64(bytes, at, fuzzValue(rng, getU64(bytes, at), size));
        break;
      }
      case Mutation::RecordStride24:
        putU32(bytes, 88, 24);
        break;
      default:
        break;
    }
    return bytes;
}

/**
 * A loaded bundle's views must lie inside its bytes: read every record,
 * chain entry and plane code (ASan catches a read outside them).  The
 * read-in load ran the data check, so its records must also be
 * canonical; the mapped load checked only the header.
 */
void
expectReadableBundle(const MappedCaptureBundle &out, bool data_checked)
{
    const Trace &stream = out.stream;
    ASSERT_GE(stream.numCores(), 1u);
    ASSERT_LE(stream.numCores(), kMaxCores);
    ASSERT_NE(out.aux, nullptr);
    ASSERT_EQ(out.aux->count, stream.size());
    const auto *raw = reinterpret_cast<const std::uint8_t *>(stream.data());
    std::uint64_t sum = fnv1a64(raw, stream.size() * sizeof(MemAccess));
    for (std::size_t i = 0; data_checked && i < stream.size(); ++i) {
        const std::uint8_t *record = raw + i * sizeof(MemAccess);
        std::uint32_t block = 0;
        std::memcpy(&block, record + offsetof(MemAccess, block), 4);
        ASSERT_LT(block, kBlockNumberLimit) << i;
        ASSERT_LT(record[offsetof(MemAccess, core)], stream.numCores());
        ASSERT_LE(record[offsetof(MemAccess, isWrite)], 1);
        ASSERT_EQ(record[offsetof(MemAccess, pad)], 0);
        ASSERT_EQ(record[offsetof(MemAccess, pad) + 1], 0);
    }
    if (out.aux->nextUse != nullptr)
        sum += fnv1a64(out.aux->nextUse, stream.size() * 4);
    for (const auto &plane : out.aux->planes)
        sum += fnv1a64(plane.codes, stream.size());
    EXPECT_NE(sum, 0u);
}

/** Per-kind tallies of what the mutants did. */
struct FuzzTally
{
    std::array<std::uint64_t, std::size_t(Mutation::Count)> refused{};
    std::array<std::uint64_t, std::size_t(Mutation::Count)> loaded{};
    std::set<std::string> diagnostics;
};

/**
 * Load `bytes` both ways; each must refuse with a reason or load.
 * Paranoid builds run the data check at map time and panic on a
 * mismatch by design, so there only the read-in load takes mutants.
 */
void
fuzzOne(const std::string &bytes, Mutation m, FuzzTally &tally)
{
    ScratchFile file;
    writeBytes(file.str(), bytes);
    for (const auto &[entry, load] : kEntryPoints) {
#ifdef CASIM_PARANOID
        if (load != &readInCaptureBundle)
            continue;
#endif
        SCOPED_TRACE(entry);
        MappedCaptureBundle out;
        std::string error;
        if (!load(file.str(), kFuzzHash, out, &error)) {
            ASSERT_FALSE(error.empty());
            tally.diagnostics.insert(error);
            ++tally.refused[std::size_t(m)];
            continue;
        }
        EXPECT_TRUE(error.empty()) << error;
        expectReadableBundle(out, load == &readInCaptureBundle);
        ++tally.loaded[std::size_t(m)];
    }
}

TEST(BundleFuzz, EveryMutantIsRefusedOrLoadsValid)
{
    const Trace trace = smallCapture(3000);
    ASSERT_EQ(trace.size(), 3000u);
    Rng rng(0xf022);
    FuzzTally tally;
    for (const FuzzSeed &seed : fuzzCorpus(trace)) {
        SCOPED_TRACE(seed.name);
        // The unmutated seed loads both ways.
        {
            ScratchFile file;
            writeBytes(file.str(), seed.bytes);
            for (const auto &[entry, load] : kEntryPoints) {
                MappedCaptureBundle out;
                std::string error;
                ASSERT_TRUE(load(file.str(), kFuzzHash, out, &error))
                    << entry << ": " << error;
                expectReadableBundle(out, true);
            }
        }
        for (int iter = 0; iter < 600; ++iter) {
            const auto m =
                static_cast<Mutation>(iter % int(Mutation::Count));
            std::string bytes = mutate(seed.bytes, m, rng);
            // Resealing half the mutants gets them past the checksums,
            // into the structural and data checks behind them.
            if (rng.chance(0.5))
                reseal(bytes);
            SCOPED_TRACE(std::string(mutationName(m)) + ", iteration " +
                         std::to_string(iter));
            fuzzOne(bytes, m, tally);
            if (HasFatalFailure())
                return;
        }
    }
    // Every kind reached a diagnostic, and the diagnostics span the
    // decoder's and the data check's reasons, stale ones included.
    for (int m = 0; m < int(Mutation::Count); ++m)
        EXPECT_GT(tally.refused[m], 0u) << mutationName(Mutation(m));
    EXPECT_GT(tally.loaded[int(Mutation::BitFlips)], 0u);
    EXPECT_TRUE(tally.diagnostics.count("unsupported bundle version"));
    EXPECT_TRUE(tally.diagnostics.count("bad bundle trace"));
    EXPECT_TRUE(tally.diagnostics.count("truncated bundle header"));
    EXPECT_TRUE(tally.diagnostics.count("inconsistent bundle header"));
    EXPECT_GE(tally.diagnostics.size(), 12u);
}

TEST(BundleFuzz, StaleStrideIsAStaleMiss)
{
    // A header claiming the old 24-byte stride, even under a valid
    // checksum, is another format revision: a stale miss for the
    // capture cache, never corruption.
    const Trace trace = smallCapture(100);
    std::string bytes = bundleBytes(kFuzzHash, trace);
    putU32(bytes, 88, 24);
    reseal(bytes);
    expectBothReject(bytes, kFuzzHash, "unsupported bundle version");

    ScratchFile file;
    writeBytes(file.str(), bytes);
    CaptureCache cache;
    CapturedWorkload out;
    std::string why;
    EXPECT_FALSE(cache.load(file.str(), kFuzzHash, out, &why));
    EXPECT_EQ(cache.counter("stale_misses"), 1u);
    EXPECT_EQ(cache.counter("corrupt_misses"), 0u);
}

} // namespace
} // namespace casim
