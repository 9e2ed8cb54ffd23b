/**
 * @file
 * Tests for the persistent capture cache: warm loads must be
 * byte-identical to cold regeneration, and stale, truncated or
 * corrupted cache files must fall back to regeneration while counting
 * the fallback in the capture_cache stat group.  The cache is an
 * injected handle now, so every test owns its instance and reads its
 * counters from zero.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include <unistd.h>

#include "sim/capture_cache.hh"
#include "sim/experiment.hh"
#include "trace/mmap_file.hh"
#include "trace/trace_io.hh"

namespace casim {
namespace {

namespace fs = std::filesystem;

/** A scratch cache directory removed at scope exit. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        path_ = fs::temp_directory_path() /
                ("casim_capcache_" + std::to_string(::getpid()) + "_" +
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

StudyConfig
tinyConfig(const std::string &capture_dir = "")
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.01;
    config.captureDir = capture_dir;
    return config;
}

/** Field-by-field equality of two captures, stream records included. */
void
expectSameCapture(const CapturedWorkload &a, const CapturedWorkload &b)
{
    EXPECT_EQ(a.info.name, b.info.name);
    EXPECT_EQ(a.demandAccesses, b.demandAccesses);
    EXPECT_EQ(a.footprintBlocks, b.footprintBlocks);

    const HierarchyRunResult &ha = a.hierarchy, &hb = b.hierarchy;
    EXPECT_EQ(ha.demandAccesses, hb.demandAccesses);
    EXPECT_EQ(ha.llcAccesses, hb.llcAccesses);
    EXPECT_EQ(ha.llcHits, hb.llcHits);
    EXPECT_EQ(ha.llcMisses, hb.llcMisses);
    EXPECT_EQ(ha.llcMpkr, hb.llcMpkr);
    EXPECT_EQ(ha.upgrades, hb.upgrades);
    EXPECT_EQ(ha.interventions, hb.interventions);
    EXPECT_EQ(ha.backInvalidations, hb.backInvalidations);
    EXPECT_EQ(ha.memReads, hb.memReads);
    EXPECT_EQ(ha.memWritebacks, hb.memWritebacks);
    EXPECT_EQ(ha.cycles, hb.cycles);

    const SharingSummary &sa = ha.sharing, &sb = hb.sharing;
    EXPECT_EQ(sa.sharedHitFraction, sb.sharedHitFraction);
    EXPECT_EQ(sa.sharedHits, sb.sharedHits);
    EXPECT_EQ(sa.privateHits, sb.privateHits);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(sa.classHits[i], sb.classHits[i]);
        EXPECT_EQ(sa.classResidencies[i], sb.classResidencies[i]);
    }
    EXPECT_EQ(sa.deadResidencies, sb.deadResidencies);
    EXPECT_EQ(sa.sharerHits, sb.sharerHits);

    EXPECT_EQ(a.stream.name(), b.stream.name());
    EXPECT_EQ(a.stream.numCores(), b.stream.numCores());
    ASSERT_EQ(a.stream.size(), b.stream.size());
    for (std::size_t i = 0; i < a.stream.size(); ++i) {
        ASSERT_EQ(a.stream[i].block, b.stream[i].block);
        ASSERT_EQ(a.stream[i].pc, b.stream[i].pc);
        ASSERT_EQ(a.stream[i].core, b.stream[i].core);
        ASSERT_EQ(a.stream[i].isWrite, b.stream[i].isWrite);
    }
}

/** The single cache file a warm captureWorkload() run would read. */
fs::path
onlyCacheFile(const fs::path &dir)
{
    fs::path found;
    int count = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        found = entry.path();
        ++count;
    }
    EXPECT_EQ(count, 1);
    return found;
}

TEST(CaptureCache, WarmLoadIsByteIdenticalAcrossAllWorkloads)
{
    ScratchDir dir;
    const StudyConfig uncached = tinyConfig();
    const StudyConfig cached = tinyConfig(dir.str());

    CaptureCache cache;
    std::uint64_t workloads = 0;
    for (const auto &info : allWorkloads()) {
        const CapturedWorkload fresh =
            captureWorkload(info.name, uncached, cache);
        const CapturedWorkload cold =
            captureWorkload(info.name, cached, cache);
        const CapturedWorkload warm =
            captureWorkload(info.name, cached, cache);
        SCOPED_TRACE(info.name);
        expectSameCapture(fresh, cold);
        expectSameCapture(fresh, warm);
        ++workloads;
    }
    // One cold miss and one warm hit per workload (uncached runs never
    // touch the cache).
    EXPECT_EQ(cache.counter("hits"), workloads);
    EXPECT_EQ(cache.counter("cold_misses"), workloads);
}

TEST(CaptureCache, TruncatedFileFallsBackToRegeneration)
{
    ScratchDir dir;
    const StudyConfig cached = tinyConfig(dir.str());
    CaptureCache cache;
    const CapturedWorkload fresh =
        captureWorkload("canneal", cached, cache);

    const fs::path file = onlyCacheFile(dir.path());
    const auto size = fs::file_size(file);
    fs::resize_file(file, size / 2);

    const CapturedWorkload again =
        captureWorkload("canneal", cached, cache);
    expectSameCapture(fresh, again);
    // The fallback is counted as a corrupt miss, and the regeneration
    // must also have repaired the cache file.
    EXPECT_EQ(cache.counter("corrupt_misses"), 1u);
    EXPECT_EQ(fs::file_size(onlyCacheFile(dir.path())), size);

    // An empty file is corruption too, never a cold miss.
    fs::resize_file(onlyCacheFile(dir.path()), 0);
    expectSameCapture(fresh, captureWorkload("canneal", cached, cache));
    EXPECT_EQ(cache.counter("corrupt_misses"), 2u);
    EXPECT_EQ(cache.counter("cold_misses"), 1u);
}

TEST(CaptureCache, HeaderCorruptionFallsBackToRegeneration)
{
    ScratchDir dir;
    const StudyConfig cached = tinyConfig(dir.str());
    CaptureCache cache;
    const CapturedWorkload fresh =
        captureWorkload("canneal", cached, cache);

    // Flip one bit inside the checksummed header region (a metadata
    // word) — exactly what the cheap map-time validation must notice
    // without touching any data page.
    const fs::path file = onlyCacheFile(dir.path());
    std::fstream f(file, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(100);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
    f.close();

    const CapturedWorkload again =
        captureWorkload("canneal", cached, cache);
    expectSameCapture(fresh, again);
    EXPECT_EQ(cache.counter("corrupt_misses"), 1u);
}

TEST(CaptureCache, VersionMismatchFallsBackToRegeneration)
{
    ScratchDir dir;
    const StudyConfig cached = tinyConfig(dir.str());
    CaptureCache cache;
    const CapturedWorkload fresh =
        captureWorkload("canneal", cached, cache);

    const fs::path file = onlyCacheFile(dir.path());
    std::fstream f(file, std::ios::in | std::ios::out |
                             std::ios::binary);
    // The bundle version is the u32 right after the 4-byte magic.
    f.seekp(4);
    const std::uint32_t future_version = 0xfffffffeu;
    f.write(reinterpret_cast<const char *>(&future_version),
            sizeof(future_version));
    f.close();

    // An unsupported bundle version is a stale cache entry, not
    // corruption.
    const CapturedWorkload again =
        captureWorkload("canneal", cached, cache);
    expectSameCapture(fresh, again);
    EXPECT_EQ(cache.counter("stale_misses"), 1u);
}

TEST(CaptureCache, OldVersionHeaderIsStaleMissNotCorrupt)
{
    ScratchDir dir;
    const StudyConfig cached = tinyConfig(dir.str());
    CaptureCache cache;
    const CapturedWorkload fresh =
        captureWorkload("canneal", cached, cache);

    // Rewrite the header's version word to 1 (no aux section), 2 (the
    // chunked pre-mmap layout) or 3 (24-byte records, with the v3
    // record stride too) — formats this code used to write.  A bundle
    // from an old version is a well-formed file that is merely out of
    // date: it must be counted as a stale miss (like a config change),
    // not corruption, and be rewritten in the current format.
    const fs::path file = onlyCacheFile(dir.path());
    std::uint64_t stale = 0;
    for (const std::uint32_t old_version : {1u, 2u, 3u}) {
        SCOPED_TRACE(old_version);
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(4);
        f.write(reinterpret_cast<const char *>(&old_version),
                sizeof(old_version));
        if (old_version == 3) {
            const std::uint32_t v3_stride = 24;
            f.seekp(88);
            f.write(reinterpret_cast<const char *>(&v3_stride),
                    sizeof(v3_stride));
        }
        f.close();

        const CapturedWorkload again =
            captureWorkload("canneal", cached, cache);
        expectSameCapture(fresh, again);
        EXPECT_EQ(cache.counter("stale_misses"), ++stale);
        EXPECT_EQ(cache.counter("corrupt_misses"), 0u);
    }
    const CapturedWorkload warm = captureWorkload("canneal", cached, cache);
    expectSameCapture(fresh, warm);
    EXPECT_EQ(cache.counter("hits"), 1u);
}

TEST(CaptureCache, WarmStartCountsZeroDeserialization)
{
    ScratchDir dir;
    const StudyConfig cached = tinyConfig(dir.str());
    CaptureCache writer;
    captureWorkload("canneal", cached, writer);

    CaptureCache cache;
    captureWorkload("canneal", cached, cache);
    EXPECT_EQ(cache.counter("hits"), 1u);
    if (mmapDisabled()) {
        // The bundle is read into memory — and never mapped.
        EXPECT_EQ(cache.counter("mmap_maps"), 0u);
        EXPECT_EQ(cache.counter("bytes_mapped"), 0u);
        EXPECT_EQ(cache.counter("deserialized"), 1u);
    } else {
        // The warm default: one mapping, zero deserialization.
        EXPECT_EQ(cache.counter("mmap_maps"), 1u);
        EXPECT_GT(cache.counter("bytes_mapped"), 0u);
        EXPECT_EQ(cache.counter("deserialized"), 0u);
    }
}

TEST(CaptureCache, WarmLoadAdoptsNextUseChainAndPlanes)
{
    ScratchDir dir;
    const StudyConfig cached = tinyConfig(dir.str());
    CaptureCache cache;
    const CapturedWorkload cold =
        captureWorkload("canneal", cached, cache);
    const CapturedWorkload warm =
        captureWorkload("canneal", cached, cache);

    // The warm load must carry the bundle's precomputed chain and one
    // plane per studied oracle window, as a borrowed view over the
    // mapped bundle (or the fallback's owned aux).
    ASSERT_NE(warm.nextUseAux, nullptr);
    const auto pairs = studyOracleWindows(cached);
    ASSERT_EQ(warm.nextUseAux->planes.size(), pairs.size());
    EXPECT_EQ(warm.nextUseAux->count, warm.stream.size());
    ASSERT_NE(warm.nextUseAux->nextUse, nullptr);

    // Materializing the warm index must adopt, not rebuild...
    const auto adopted_before = labelPlaneCounter("adopted");
    const auto builds_before = labelPlaneCounter("builds");
    const NextUseIndex &warm_index = warm.nextUse();
    EXPECT_EQ(labelPlaneCounter("adopted") - adopted_before,
              pairs.size());

    // ... and every adopted plane and chain entry must agree with a
    // from-scratch build, so oracle decisions are byte-identical.
    const NextUseIndex &cold_index = cold.nextUse();
    for (std::size_t i = 0; i < warm.stream.size(); ++i)
        ASSERT_EQ(warm_index.nextUse(i), cold_index.nextUse(i));
    for (const auto &[window, near] : pairs) {
        EXPECT_EQ(warm_index.labelPlane(window, near).codes,
                  cold_index.labelPlane(window, near).codes);
    }
    EXPECT_EQ(labelPlaneCounter("builds") - builds_before, 0u)
        << "a warm load must not rebuild any label plane";
}

TEST(CaptureCache, ConfigChangeMissesTheCache)
{
    ScratchDir dir;
    StudyConfig cached = tinyConfig(dir.str());
    CaptureCache cache;
    captureWorkload("canneal", cached, cache);

    // A different seed is a different capture: new hash, new file.
    cached.workload.seed = 43;
    const CapturedWorkload reseeded =
        captureWorkload("canneal", cached, cache);
    int files = 0;
    for ([[maybe_unused]] const auto &entry :
         fs::directory_iterator(dir.path()))
        ++files;
    EXPECT_EQ(files, 2);

    StudyConfig uncached = tinyConfig();
    uncached.workload.seed = 43;
    expectSameCapture(captureWorkload("canneal", uncached, cache),
                      reseeded);
}

TEST(CaptureCache, ResidentBudgetEvictsLeastRecentlyUsed)
{
    CaptureCache cache;
    cache.setResidentBudget(1); // any completed capture is over budget
    StudyConfig a = tinyConfig();
    StudyConfig b = tinyConfig();
    b.workload.seed = 43;

    // A lone oversized capture is protected on insert: it still serves
    // its requester and stays resident until a later round needs room.
    const auto first = cache.capture("canneal", a);
    EXPECT_EQ(cache.residentCounter("entries"), 1u);
    EXPECT_EQ(cache.residentCounter("evictions"), 0u);
    const std::uint64_t first_bytes = cache.residentCounter("bytes");
    EXPECT_GT(first_bytes, 0u);

    // The next capture's accounting evicts the older entry.
    const auto second = cache.capture("canneal", b);
    EXPECT_EQ(cache.residentCounter("entries"), 1u);
    EXPECT_EQ(cache.residentCounter("evictions"), 1u);
    EXPECT_EQ(cache.residentCounter("evicted_bytes"), first_bytes);

    // Eviction drops only the store's reference: in-flight users keep
    // theirs, and a repeat request recaptures instead of memo-hitting.
    EXPECT_GT(first->stream.size(), 0u);
    cache.capture("canneal", a);
    EXPECT_EQ(cache.counter("memo_hits"), 0u);
    EXPECT_EQ(cache.residentCounter("evictions"), 2u);

    // Unbounded again: the resident entry memo-hits.
    cache.setResidentBudget(0);
    EXPECT_EQ(cache.residentCounter("budget_bytes"), 0u);
    cache.capture("canneal", a);
    EXPECT_EQ(cache.counter("memo_hits"), 1u);
}

TEST(CaptureCache, HashCoversWorkloadAndHierarchyKnobs)
{
    const StudyConfig base = tinyConfig();
    const HierarchyConfig hier = base.hierarchy;
    const std::uint64_t h0 =
        captureConfigHash("canneal", base.workload, hier);

    EXPECT_NE(h0, captureConfigHash("ocean", base.workload, hier));

    WorkloadParams params = base.workload;
    params.seed = 7;
    EXPECT_NE(h0, captureConfigHash("canneal", params, hier));
    params = base.workload;
    params.scale = 0.25;
    EXPECT_NE(h0, captureConfigHash("canneal", params, hier));

    HierarchyConfig big = hier;
    big.llc.sizeBytes *= 2;
    EXPECT_NE(h0, captureConfigHash("canneal", base.workload, big));
    HierarchyConfig nodram = hier;
    nodram.useDramModel = false;
    EXPECT_NE(h0, captureConfigHash("canneal", base.workload, nodram));
}

} // namespace
} // namespace casim
