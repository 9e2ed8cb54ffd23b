/**
 * @file
 * Warm-start and out-of-core benchmarks for the CCAP v4 substrate.
 *
 * Three modes:
 *
 *   warm_start_bench --write --out=FILE [--mb=256] [--epoch-records=N]
 *     Generate a deterministic synthetic LLC stream of roughly --mb
 *     megabytes of trace records (plus its next-use chain) and persist
 *     it as a bundle.  Run in a separate process so the writer's
 *     fully resident trace never pollutes the replayer's RSS.
 *
 *   warm_start_bench --replay --in=FILE [--budget-mb=64] [--llc-kb=1024]
 *     Map the bundle zero-copy and replay it through an LRU LLC with
 *     the streaming pager, then report max RSS (getrusage) as one JSON
 *     line.  With a nonzero --budget-mb the run fails when max RSS
 *     exceeds the budget — the flat-memory guarantee tier1.sh asserts
 *     with a trace several times the budget.
 *
 *   warm_start_bench [google-benchmark flags]
 *     BM_WarmStartMapped / BM_WarmStartDeserialized: latency of a warm
 *     load via mmap (header validation + first/last page touch) vs
 *     reading the bundle into memory (read + decode + full data check,
 *     the CASIM_NO_MMAP path), over the same bundle.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <random>
#include <string>

#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include "common/options.hh"
#include "mem/repl/factory.hh"
#include "sim/stream_sim.hh"
#include "trace/mmap_file.hh"
#include "trace/next_use.hh"
#include "trace/trace_io.hh"

using namespace casim;

namespace {

/** Both processes must agree on the bundle's configuration hash. */
constexpr std::uint64_t kBenchHash = 0x5ca1ab1e0ddba11ull;

/**
 * Deterministic synthetic stream: references over a 2 MB block pool so
 * the LLC sees real reuse while the tag store stays small relative to
 * the RSS budget.
 */
Trace
makeStream(std::size_t count)
{
    Trace trace("warm_start", 8);
    trace.reserve(count);
    std::mt19937_64 rng(0xbe9c);
    for (std::size_t i = 0; i < count; ++i) {
        const Addr addr = (rng() % (1u << 15)) * kBlockBytes;
        trace.append(addr, 0x400000 + (rng() & 0xff) * 4,
                     static_cast<CoreId>(rng() & 7), (rng() & 7) == 0);
    }
    return trace;
}

int
doWrite(const Options &options)
{
    const std::uint64_t mb = options.getUint("mb", 256);
    const std::uint64_t epoch =
        options.getUint("epoch-records", kDefaultEpochRecords);
    const std::string out =
        options.getString("out", "warm_start.ccap");

    const auto count =
        static_cast<std::size_t>((mb << 20) / sizeof(MemAccess));
    const Trace trace = makeStream(count);
    CaptureAux aux;
    aux.nextUse = computeNextUseChain(trace);

    if (!writeFileDurably(out, [&](std::ostream &os) {
            return writeCaptureBundle(os, kBenchHash, {}, trace,
                                      &aux, epoch);
        })) {
        std::cerr << "FATAL: cannot write " << out << "\n";
        return 1;
    }
    std::cout << "{\"records\": " << count << ", \"file_bytes\": "
              << std::filesystem::file_size(out) << "}\n";
    return 0;
}

std::uint64_t
maxRssBytes()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

int
doReplay(const Options &options)
{
    const std::string in = options.getString("in", "");
    const std::uint64_t budget = options.getUint("budget-mb", 64) << 20;
    const std::uint64_t llc_kb = options.getUint("llc-kb", 1024);
    if (in.empty()) {
        std::cerr << "replay needs --in=<bundle>\n";
        return 1;
    }

    MappedCaptureBundle mapped;
    std::string error;
    if (!mapCaptureBundle(in, kBenchHash, mapped, &error)) {
        std::cerr << "FATAL: cannot map " << in << ": " << error
                  << "\n";
        return 1;
    }

    CacheGeometry geo;
    geo.sizeBytes = llc_kb << 10;
    geo.ways = 16;
    StreamSim sim(mapped.stream, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();

    const std::uint64_t rss = maxRssBytes();
    std::cout << "{\"schema\": \"casim-warm-start-v1\", \"records\": "
              << mapped.stream.size() << ", \"misses\": "
              << sim.misses() << ", \"bytes_mapped\": "
              << mapped.bytesMapped << ", \"max_rss_bytes\": " << rss
              << ", \"budget_bytes\": " << budget << "}\n";
    if (budget != 0 && rss > budget) {
        std::cerr << "FATAL: max RSS " << (rss >> 20)
                  << " MB exceeds the " << (budget >> 20)
                  << " MB budget (trace "
                  << (mapped.bytesMapped >> 20) << " MB mapped)\n";
        return 1;
    }
    return 0;
}

/** Set once the latency benchmarks have written their bundle. */
std::string bench_bundle_path;

/** The shared bundle the latency benchmarks load, written once. */
const std::string &
benchBundle()
{
    static const std::string path = [] {
        const std::string file =
            (std::filesystem::temp_directory_path() /
             ("casim_warm_start_" + std::to_string(::getpid()) +
              ".ccap"))
                .string();
        const Trace trace = makeStream(1 << 20);
        CaptureAux aux;
        aux.nextUse = computeNextUseChain(trace);
        if (!writeFileDurably(file, [&](std::ostream &os) {
                return writeCaptureBundle(os, kBenchHash, {}, trace,
                                          &aux);
            })) {
            std::cerr << "FATAL: cannot write bench bundle\n";
            std::exit(1);
        }
        bench_bundle_path = file;
        return file;
    }();
    return path;
}

void
BM_WarmStartMapped(benchmark::State &state)
{
    const std::string &path = benchBundle();
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        MappedCaptureBundle mapped;
        if (!mapCaptureBundle(path, kBenchHash, mapped, nullptr))
            state.SkipWithError("map failed");
        // Touch the ends so the measurement includes real page faults,
        // not just the mmap bookkeeping.
        benchmark::DoNotOptimize(mapped.stream[0].blockAddr());
        benchmark::DoNotOptimize(
            mapped.stream[mapped.stream.size() - 1].blockAddr());
        bytes += mapped.bytesMapped;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WarmStartMapped);

void
BM_WarmStartDeserialized(benchmark::State &state)
{
    const std::string &path = benchBundle();
    std::uint64_t records = 0;
    for (auto _ : state) {
        MappedCaptureBundle loaded;
        if (!readInCaptureBundle(path, kBenchHash, loaded, nullptr))
            state.SkipWithError("read failed");
        benchmark::DoNotOptimize(loaded.stream.data());
        records += loaded.stream.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_WarmStartDeserialized);

} // namespace

int
main(int argc, char **argv)
{
    const Options options(argc, argv);
    if (options.has("write"))
        return doWrite(options);
    if (options.has("replay"))
        return doReplay(options);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!bench_bundle_path.empty()) {
        std::error_code ec;
        std::filesystem::remove(bench_bundle_path, ec);
    }
    return 0;
}
