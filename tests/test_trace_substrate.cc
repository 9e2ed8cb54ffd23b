/**
 * @file
 * Tests for the mmap-backed epoch-segmented CCAP v4 trace substrate:
 * the mapped view, the read-in load and the resident path must agree
 * byte for byte across epoch sizes (including degenerate epoch = 1 and
 * epoch >= trace), replay over a mapped view must equal replay over
 * the resident trace, data-section corruption must be caught by the
 * read-in load's data check, and the durable-write helper must never
 * leave a torn file behind.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "trace/mmap_file.hh"
#include "trace/next_use.hh"
#include "trace/trace_io.hh"

namespace casim {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kHash = 0x5eedf00dcafe1234ull;
constexpr SeqNo kWindow = 64;
constexpr SeqNo kNearWindow = 32;

/** A scratch directory removed at scope exit. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        path_ = fs::temp_directory_path() /
                ("casim_substrate_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    std::string str() const { return path_.string(); }
    const fs::path &path() const { return path_; }

  private:
    static int counter_;
    fs::path path_;
};

int ScratchDir::counter_ = 0;

/**
 * A deterministic synthetic LLC stream: multi-core references over a
 * modest block pool so the next-use chain and the label planes carry
 * real structure (reuse, sharing, near-window vetoes).
 */
Trace
makeTrace(std::size_t n, unsigned cores = 4, std::uint64_t seed = 42)
{
    Trace trace("substrate", cores);
    trace.reserve(n);
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = (rng() % 512) * kBlockBytes;
        const PC pc = 0x400000 + (rng() % 64) * 4;
        const auto core = static_cast<CoreId>(rng() % cores);
        trace.append(addr, pc, core, (rng() & 7) == 0);
    }
    return trace;
}

/** The aux section a capture of `trace` would persist. */
CaptureAux
makeAux(const Trace &trace)
{
    CaptureAux aux;
    aux.nextUse = computeNextUseChain(trace);
    const NextUseIndex index(trace);
    const auto &plane = index.labelPlane(kWindow, kNearWindow);
    CaptureAuxPlane out;
    out.window = kWindow;
    out.nearWindow = kNearWindow;
    out.codes.assign(plane.codes.begin(), plane.codes.end());
    aux.planes.push_back(std::move(out));
    return aux;
}

/** Serialize a bundle to `path` with the given epoch size. */
void
writeBundleFile(const std::string &path, const Trace &trace,
                const CaptureAux *aux, std::uint64_t epoch)
{
    const std::vector<std::uint64_t> meta = {1, 2, 3};
    const bool ok = writeFileDurably(path, [&](std::ostream &os) {
        return writeCaptureBundle(os, kHash, meta, trace, aux, epoch);
    });
    ASSERT_TRUE(ok);
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

/** Little-endian u64 at `off` in the file at `path`. */
std::uint64_t
fileU64(const std::string &path, std::uint64_t off)
{
    std::ifstream is(path, std::ios::binary);
    is.seekg(static_cast<std::streamoff>(off));
    std::uint64_t value = 0;
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    EXPECT_TRUE(is.good());
    return value;
}

void
flipByte(const std::string &path, std::uint64_t off)
{
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(static_cast<std::streamoff>(off));
    char byte = 0;
    io.read(&byte, 1);
    byte ^= 0x40;
    io.seekp(static_cast<std::streamoff>(off));
    io.write(&byte, 1);
    ASSERT_TRUE(io.good());
}

std::uint64_t
alignUp4k(std::uint64_t v)
{
    return (v + 4095) & ~std::uint64_t{4095};
}

/** Epoch sizes covering every boundary case for a trace of size n. */
std::vector<std::uint64_t>
epochSizes(std::size_t n)
{
    return {1, 3, 7, 512, n, 2 * std::uint64_t{n}};
}

TEST(TraceSubstrate, MappedViewMatchesResidentAcrossEpochSizes)
{
    ScratchDir dir;
    const Trace trace = makeTrace(5000);
    const CaptureAux aux = makeAux(trace);

    for (const std::uint64_t epoch : epochSizes(trace.size())) {
        const std::string path =
            (dir.path() / ("e" + std::to_string(epoch) + ".ccap"))
                .string();
        writeBundleFile(path, trace, &aux, epoch);

        MappedCaptureBundle mapped;
        std::string error;
        ASSERT_TRUE(mapCaptureBundle(path, kHash, mapped, &error))
            << "epoch " << epoch << ": " << error;
        EXPECT_EQ(mapped.meta, (std::vector<std::uint64_t>{1, 2, 3}));
        EXPECT_TRUE(mapped.stream.isView());
        EXPECT_NE(mapped.stream.pager(), nullptr);
        EXPECT_GT(mapped.bytesMapped, 0u);
        expectSameRecords(trace, mapped.stream);

        ASSERT_NE(mapped.aux, nullptr);
        ASSERT_NE(mapped.aux->nextUse, nullptr);
        ASSERT_EQ(mapped.aux->count, trace.size());
        EXPECT_EQ(std::memcmp(mapped.aux->nextUse, aux.nextUse.data(),
                              aux.nextUse.size() * 4),
                  0)
            << "epoch " << epoch;
        ASSERT_EQ(mapped.aux->planes.size(), 1u);
        EXPECT_EQ(mapped.aux->planes[0].window, kWindow);
        EXPECT_EQ(mapped.aux->planes[0].nearWindow, kNearWindow);
        EXPECT_EQ(std::memcmp(mapped.aux->planes[0].codes,
                              aux.planes[0].codes.data(),
                              aux.planes[0].codes.size()),
                  0)
            << "epoch " << epoch;
    }
}

TEST(TraceSubstrate, StreamFallbackMatchesResidentAcrossEpochSizes)
{
    ScratchDir dir;
    const Trace trace = makeTrace(4097);
    const CaptureAux aux = makeAux(trace);

    for (const std::uint64_t epoch : epochSizes(trace.size())) {
        const std::string path =
            (dir.path() / ("e" + std::to_string(epoch) + ".ccap"))
                .string();
        writeBundleFile(path, trace, &aux, epoch);

        MappedCaptureBundle loaded;
        std::string error;
        ASSERT_TRUE(readInCaptureBundle(path, kHash, loaded, &error))
            << "epoch " << epoch << ": " << error;
        EXPECT_EQ(loaded.meta, (std::vector<std::uint64_t>{1, 2, 3}));
        // A view over the heap buffer: nothing mapped, nothing to page.
        EXPECT_TRUE(loaded.stream.isView());
        EXPECT_EQ(loaded.stream.pager(), nullptr);
        EXPECT_EQ(loaded.bytesMapped, 0u);
        expectSameRecords(trace, loaded.stream);
        ASSERT_NE(loaded.aux, nullptr);
        ASSERT_NE(loaded.aux->nextUse, nullptr);
        ASSERT_EQ(loaded.aux->count, trace.size());
        EXPECT_EQ(std::memcmp(loaded.aux->nextUse, aux.nextUse.data(),
                              aux.nextUse.size() * 4),
                  0);
        ASSERT_EQ(loaded.aux->planes.size(), 1u);
        EXPECT_EQ(std::memcmp(loaded.aux->planes[0].codes,
                              aux.planes[0].codes.data(),
                              aux.planes[0].codes.size()),
                  0);
    }
}

TEST(TraceSubstrate, ReplayOverMappedViewMatchesResident)
{
    ScratchDir dir;
    const Trace trace = makeTrace(6000);
    const CaptureAux aux = makeAux(trace);
    // A tiny epoch forces the pager across many advise/retire
    // boundaries inside one replay.
    const std::string path = (dir.path() / "replay.ccap").string();
    writeBundleFile(path, trace, &aux, 7);

    MappedCaptureBundle mapped;
    ASSERT_TRUE(mapCaptureBundle(path, kHash, mapped, nullptr));

    const CacheGeometry geo{16 * 1024, 4, kBlockBytes};
    ReplaySpec lru;
    lru.geo = geo;
    EXPECT_EQ(replayMisses(mapped.stream, lru),
              replayMisses(trace, lru));

    // Shards walk the same mapped pages concurrently, none retiring
    // them under the others.
    ParallelRunner runner(4);
    ReplaySpec sharded = lru;
    sharded.shards = 4;
    sharded.shardRunner = &runner;
    EXPECT_EQ(replayMisses(mapped.stream, sharded),
              replayMisses(trace, lru));

    // OPT exercises the next-use chain: the resident path builds the
    // index eagerly, the mapped path adopts the bundle's chain and
    // plane zero-copy.
    const NextUseIndex fresh(trace);
    std::vector<NextUseIndex::LabelPlane> planes;
    planes.emplace_back(kWindow, kNearWindow,
                        mapped.aux->planes[0].codes, mapped.aux->count);
    const NextUseIndex adopted(
        mapped.stream, mapped.aux->nextUse,
        static_cast<std::size_t>(mapped.aux->count), std::move(planes),
        mapped.aux);
    ASSERT_EQ(adopted.size(), fresh.size());
    EXPECT_EQ(std::memcmp(adopted.chainData(), fresh.chainData(),
                          fresh.size() * 4),
              0);
    EXPECT_EQ(adopted.labelPlane(kWindow, kNearWindow),
              fresh.labelPlane(kWindow, kNearWindow));

    ReplaySpec opt_resident;
    opt_resident.policy = "opt";
    opt_resident.geo = geo;
    opt_resident.nextUse = &fresh;
    ReplaySpec opt_mapped = opt_resident;
    opt_mapped.nextUse = &adopted;
    EXPECT_EQ(replayMisses(mapped.stream, opt_mapped),
              replayMisses(trace, opt_resident));
    opt_mapped.shards = 4;
    opt_mapped.shardRunner = &runner;
    EXPECT_EQ(replayMisses(mapped.stream, opt_mapped),
              replayMisses(trace, opt_resident));
}

TEST(TraceSubstrate, ChainlessAndEmptyBundlesRoundTrip)
{
    ScratchDir dir;

    // No aux: chain_off = 0, mapped aux has a null chain and no planes.
    const Trace trace = makeTrace(257);
    const std::string bare = (dir.path() / "bare.ccap").string();
    writeBundleFile(bare, trace, nullptr, 512);
    MappedCaptureBundle mapped;
    ASSERT_TRUE(mapCaptureBundle(bare, kHash, mapped, nullptr));
    expectSameRecords(trace, mapped.stream);
    ASSERT_NE(mapped.aux, nullptr);
    EXPECT_EQ(mapped.aux->nextUse, nullptr);
    EXPECT_TRUE(mapped.aux->planes.empty());

    // Empty trace: zero records, zero segments.
    const Trace empty("empty", 2);
    const std::string none = (dir.path() / "empty.ccap").string();
    writeBundleFile(none, empty, nullptr, 512);
    MappedCaptureBundle mapped_empty;
    ASSERT_TRUE(mapCaptureBundle(none, kHash, mapped_empty, nullptr));
    EXPECT_EQ(mapped_empty.stream.size(), 0u);
    EXPECT_EQ(mapped_empty.stream.name(), "empty");
}

TEST(TraceSubstrate, DataSectionCorruptionFailsTheValidatingReader)
{
    ScratchDir dir;
    const Trace trace = makeTrace(3000);
    const CaptureAux aux = makeAux(trace);

    const auto expectReadFails =
        [&](const std::string &path, const std::string &want) {
            MappedCaptureBundle loaded;
            std::string error;
            EXPECT_FALSE(
                readInCaptureBundle(path, kHash, loaded, &error));
            EXPECT_EQ(error, want);
        };

    // Corrupt a trace record.
    const std::string t = (dir.path() / "trace.ccap").string();
    writeBundleFile(t, trace, &aux, 512);
    const std::uint64_t trace_off = fileU64(t, 64);
    flipByte(t, trace_off + 10);
    expectReadFails(t, "bundle payload checksum mismatch");

    // Corrupt the next-use chain.
    const std::string c = (dir.path() / "chain.ccap").string();
    writeBundleFile(c, trace, &aux, 512);
    const std::uint64_t chain_off = fileU64(c, 72);
    ASSERT_NE(chain_off, 0u);
    flipByte(c, chain_off + 5);
    expectReadFails(c, "bundle aux checksum mismatch");

    // Corrupt the plane codes (the section after the chain).
    const std::string p = (dir.path() / "plane.ccap").string();
    writeBundleFile(p, trace, &aux, 512);
    const std::uint64_t codes_off =
        alignUp4k(fileU64(p, 72) + trace.size() * 4);
    flipByte(p, codes_off + 3);
    expectReadFails(p, "bundle aux checksum mismatch");

#ifndef CASIM_PARANOID
    // The mapped loader validates only the header region, so a
    // data-section flip maps fine (detection is the read-in load's and
    // CASIM_PARANOID's job); this is the documented trade-off that
    // makes warm starts deserialization-free.
    MappedCaptureBundle mapped;
    EXPECT_TRUE(mapCaptureBundle(t, kHash, mapped, nullptr));
#endif
}

TEST(TraceSubstrate, TruncationAndStalenessAreDistinguished)
{
    ScratchDir dir;
    const Trace trace = makeTrace(2000);
    const CaptureAux aux = makeAux(trace);
    const std::string path = (dir.path() / "trunc.ccap").string();
    writeBundleFile(path, trace, &aux, 512);

    // A wrong expected hash is staleness, not corruption.
    MappedCaptureBundle mapped;
    std::string error;
    EXPECT_FALSE(mapCaptureBundle(path, kHash + 1, mapped, &error));
    EXPECT_EQ(error, "config hash mismatch");

    // A truncated file is corruption for both loaders.
    const std::uint64_t size = fs::file_size(path);
    fs::resize_file(path, size - 4097);
    EXPECT_FALSE(mapCaptureBundle(path, kHash, mapped, &error));
    EXPECT_EQ(error, "bundle size mismatch");

    MappedCaptureBundle loaded;
    EXPECT_FALSE(readInCaptureBundle(path, kHash, loaded, &error));
    EXPECT_EQ(error, "bundle size mismatch");
    EXPECT_FALSE(readInCaptureBundle(path, kHash + 1, loaded, &error));
    EXPECT_EQ(error, "config hash mismatch");
}

TEST(TraceSubstrate, WriteFileDurablyNeverLeavesATornFile)
{
    ScratchDir dir;
    const std::string path = (dir.path() / "durable.bin").string();

    ASSERT_TRUE(writeFileDurably(path, [](std::ostream &os) {
        os << "old contents";
        return true;
    }));

    // A failing writer must leave the previous file byte-identical and
    // no temporary droppings in the directory.
    EXPECT_FALSE(writeFileDurably(path, [](std::ostream &os) {
        os << "half-written garbage";
        return false;
    }));
    {
        std::ifstream is(path, std::ios::binary);
        std::stringstream ss;
        ss << is.rdbuf();
        EXPECT_EQ(ss.str(), "old contents");
    }
    int entries = 0;
    for (const auto &entry : fs::directory_iterator(dir.path())) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1);

    ASSERT_TRUE(writeFileDurably(path, [](std::ostream &os) {
        os << "new contents";
        return true;
    }));
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str(), "new contents");
}

} // namespace
} // namespace casim
