/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths:
 * cache demand accesses under each policy, next-use index
 * construction, oracle labeling, trace generation, and the full
 * hierarchy.  These guard the simulation throughput that the
 * experiment binaries depend on.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "core/oracle.hh"
#include "core/predictor.hh"
#include "core/sharing_aware.hh"
#include "mem/hierarchy.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/opt.hh"
#include "sim/hierarchy_sim.hh"
#include "sim/parallel.hh"
#include "sim/sharded_sim.hh"
#include "sim/stream_sim.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

/** A reusable random trace: 256K references over a 64K-block space. */
const Trace &
randomTrace()
{
    static const Trace trace = [] {
        Rng rng(42);
        Trace t("micro", 8);
        t.reserve(256 * 1024);
        for (int i = 0; i < 256 * 1024; ++i) {
            t.append(rng.below(65536) * kBlockBytes,
                     0x400 + rng.below(64) * 4,
                     static_cast<CoreId>(rng.below(8)),
                     rng.chance(0.3));
        }
        return t;
    }();
    return trace;
}

CacheGeometry
microGeometry()
{
    return CacheGeometry{1ULL << 20, 16, kBlockBytes}; // 1 MB
}

/**
 * A cache filled to capacity: block (way * numSets + set) sits in set
 * `set`, so every set holds ways distinct tags and probes for any
 * in-range address hit.
 */
std::unique_ptr<Cache>
makeFilledCache(const CacheGeometry &geo)
{
    auto cache = std::make_unique<Cache>(
        "micro", geo, requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    const unsigned sets = geo.numSets();
    SeqNo seq = 0;
    for (unsigned way = 0; way < geo.ways; ++way) {
        for (unsigned set = 0; set < sets; ++set) {
            const Addr addr =
                (static_cast<Addr>(way) * sets + set) * geo.blockBytes;
            ReplContext ctx{addr, 0x400, 0, false, seq++, false};
            cache->fillWay(ctx);
        }
    }
    return cache;
}

/** Probe every address in `probes` in order; return how many hit. */
std::uint64_t
probeAll(const Cache &cache, const std::vector<Addr> &probes)
{
    std::uint64_t found = 0;
    for (const Addr addr : probes)
        found += cache.contains(addr) ? 1 : 0;
    return found;
}

void
BM_TagLookupHit(benchmark::State &state)
{
    // 4 MB of tag state: the probe stream walks far more sets than fit
    // in L1/L2, so the scan's memory footprint dominates, as it does in
    // the replay hot loop.  Probes run in plain stream order, as
    // replay issues them.
    const CacheGeometry geo{4ULL << 20, 16, kBlockBytes};
    const auto cache = makeFilledCache(geo);
    const unsigned sets = geo.numSets();
    Rng rng(7);
    std::vector<Addr> probes(1 << 16);
    for (auto &addr : probes)
        addr = (static_cast<Addr>(rng.below(geo.ways)) * sets +
                rng.below(sets)) *
               geo.blockBytes;
    for (auto _ : state) {
        std::uint64_t found = probeAll(*cache, probes);
        benchmark::DoNotOptimize(found);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(probes.size()));
}

void
BM_TagLookupMiss(benchmark::State &state)
{
    // Every probe misses in a full set: the worst case, a complete
    // way scan per lookup.
    const CacheGeometry geo{4ULL << 20, 16, kBlockBytes};
    const auto cache = makeFilledCache(geo);
    const unsigned sets = geo.numSets();
    Rng rng(9);
    std::vector<Addr> probes(1 << 16);
    for (auto &addr : probes)
        addr = (static_cast<Addr>(geo.ways + rng.below(64)) * sets +
                rng.below(sets)) *
               geo.blockBytes;
    for (auto _ : state) {
        std::uint64_t found = probeAll(*cache, probes);
        benchmark::DoNotOptimize(found);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(probes.size()));
}

void
BM_FillEvict(benchmark::State &state)
{
    // Steady-state fills into a full cache: each new tag evicts an LRU
    // victim.  Covers the fill-path set scan (and, in paranoid builds,
    // the duplicate-residency assertion).
    const CacheGeometry geo = microGeometry();
    auto cache = makeFilledCache(geo);
    const unsigned sets = geo.numSets();
    Rng rng(11);
    std::vector<Addr> fills(1 << 16);
    for (auto &addr : fills)
        addr = (static_cast<Addr>(rng.below(4 * geo.ways)) * sets +
                rng.below(sets)) *
               geo.blockBytes;
    SeqNo seq = static_cast<SeqNo>(geo.numSets()) * geo.ways;
    for (auto _ : state) {
        for (const Addr addr : fills) {
            ReplContext ctx{addr, 0x400, 0, false, seq++, false};
            if (cache->contains(addr))
                continue;
            cache->fillWay(ctx);
        }
        benchmark::DoNotOptimize(cache->validBlocks());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(fills.size()));
}

void
BM_StreamSimPolicy(benchmark::State &state, const std::string &policy)
{
    const Trace &trace = randomTrace();
    const CacheGeometry geo = microGeometry();
    for (auto _ : state) {
        const auto factory = requirePolicyFactory(policy);
        StreamSim sim(trace, geo, factory(geo.numSets(), geo.ways));
        sim.run();
        benchmark::DoNotOptimize(sim.misses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_StreamSimSharded(benchmark::State &state)
{
    // The sharded engine against BM_StreamSimPolicy/lru on the same
    // stream: arg = shard count.  The runner lives outside the timed
    // region (a bench binary constructs its pool once); the timed work
    // is the K shard replays, each routing its own references out of
    // the shared stream in place, and the stat merge.
    const Trace &trace = randomTrace();
    const CacheGeometry geo = microGeometry();
    const auto shards = static_cast<unsigned>(state.range(0));
    ParallelRunner runner(shards);
    for (auto _ : state) {
        ShardedStreamSim sim(trace, geo, shards,
                             requirePolicyFactory("lru"));
        sim.run(&runner);
        benchmark::DoNotOptimize(sim.misses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_StreamSimOpt(benchmark::State &state)
{
    const Trace &trace = randomTrace();
    const CacheGeometry geo = microGeometry();
    const NextUseIndex index(trace);
    for (auto _ : state) {
        StreamSim sim(trace, geo,
                      std::make_unique<OptPolicy>(geo.numSets(),
                                                  geo.ways, index));
        sim.run();
        benchmark::DoNotOptimize(sim.misses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_StreamSimOracleWrapped(benchmark::State &state)
{
    // arg = LLC size in MB: 1 (the micro geometry) or 8, where the
    // filter's per-way state no longer fits the host's L2.
    const Trace &trace = randomTrace();
    const CacheGeometry geo{static_cast<std::uint64_t>(state.range(0))
                                << 20,
                            16, kBlockBytes};
    const NextUseIndex index(trace);
    for (auto _ : state) {
        OracleLabeler oracle(index, 4 * (geo.sizeBytes / kBlockBytes));
        auto wrapped = std::make_unique<SharingAwareWrapper>(
            requirePolicyFactory("lru")(geo.numSets(), geo.ways), 256);
        StreamSim sim(trace, geo, std::move(wrapped));
        sim.setLabeler(&oracle);
        sim.run();
        benchmark::DoNotOptimize(sim.misses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_StreamSimPcPred(benchmark::State &state)
{
    // A pc-pred cell: sa+lru labeled by the PC predictor, which trains
    // on every ended residency.
    const Trace &trace = randomTrace();
    const CacheGeometry geo = microGeometry();
    for (auto _ : state) {
        PcSharingPredictor predictor(PredictorConfig{});
        StreamSim sim(trace, geo,
                      std::make_unique<SharingAwareWrapper>(
                          requirePolicyFactory("lru")(geo.numSets(),
                                                      geo.ways)));
        sim.setLabeler(&predictor);
        sim.run();
        benchmark::DoNotOptimize(sim.misses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_NextUseIndexBuild(benchmark::State &state)
{
    const Trace &trace = randomTrace();
    for (auto _ : state) {
        NextUseIndex index(trace);
        benchmark::DoNotOptimize(index.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_LabelPlaneBuild(benchmark::State &state)
{
    // One uncached O(n) two-pointer sweep over the whole trace: the
    // cost a cold run pays per distinct (window, near-window) pair.
    const Trace &trace = randomTrace();
    const NextUseIndex index(trace);
    const SeqNo window =
        4 * (microGeometry().sizeBytes / kBlockBytes);
    for (auto _ : state) {
        const auto plane = index.computeLabelPlane(window, window);
        benchmark::DoNotOptimize(plane.codes.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_OracleLabel(benchmark::State &state)
{
    // Steady-state fill labeling: every trace position asked through
    // predictShared(), the replay's per-fill cost.  The plane is
    // memoized on the index, so the timed region measures lookups,
    // not the sweep (BM_LabelPlaneBuild covers that).
    const Trace &trace = randomTrace();
    const NextUseIndex index(trace);
    const SeqNo window =
        4 * (microGeometry().sizeBytes / kBlockBytes);
    for (auto _ : state) {
        OracleLabeler oracle(index, window);
        std::uint64_t shared = 0;
        SeqNo seq = 0;
        for (const MemAccess &access : trace) {
            ReplContext fill{access.blockAddr(), access.pc,
                             access.core, access.isWrite, seq++,
                             false};
            shared += oracle.predictShared(fill) ? 1 : 0;
        }
        benchmark::DoNotOptimize(shared);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadParams params;
    params.threads = 8;
    params.scale = 0.05;
    for (auto _ : state) {
        const Trace trace = makeWorkloadTrace("ocean", params);
        benchmark::DoNotOptimize(trace.size());
    }
}

/**
 * One study capture: a generated workload at the study's replay scale
 * through the study's capture geometry (8 cores, 32 KB L1s, a 4 MB
 * LLC), with the sharing tracker and stream capture on.  The LLC's
 * per-way state is far larger than the host's per-core caches, as in
 * the real capture.
 */
void
BM_HierarchyRun(benchmark::State &state)
{
    static const Trace trace = [] {
        WorkloadParams params;
        params.threads = 8;
        params.scale = 0.2;
        return makeWorkloadTrace("canneal", params);
    }();
    HierarchyConfig config;
    config.numCores = 8;
    for (auto _ : state) {
        Trace capture("canneal", config.numCores);
        const HierarchyRunResult result = runHierarchy(
            trace, config, requirePolicyFactory("lru"), &capture);
        benchmark::DoNotOptimize(result.llcMisses);
        benchmark::DoNotOptimize(capture.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

BENCHMARK(BM_TagLookupHit);
BENCHMARK(BM_TagLookupMiss);
BENCHMARK(BM_FillEvict);
BENCHMARK_CAPTURE(BM_StreamSimPolicy, lru, "lru");
BENCHMARK_CAPTURE(BM_StreamSimPolicy, srrip, "srrip");
BENCHMARK_CAPTURE(BM_StreamSimPolicy, drrip, "drrip");
BENCHMARK_CAPTURE(BM_StreamSimPolicy, ship, "ship");
BENCHMARK_CAPTURE(BM_StreamSimPolicy, nru, "nru");
BENCHMARK_CAPTURE(BM_StreamSimPolicy, tadrrip, "tadrrip");
BENCHMARK_CAPTURE(BM_StreamSimPolicy, dip, "dip");
// Wall-clock rates: the shard replays run on pool threads, whose CPU
// time the default CPU-time rate would not see.
BENCHMARK(BM_StreamSimSharded)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();
BENCHMARK(BM_StreamSimOpt);
BENCHMARK(BM_StreamSimOracleWrapped)->Arg(1)->Arg(8);
BENCHMARK(BM_StreamSimPcPred);
BENCHMARK(BM_NextUseIndexBuild);
BENCHMARK(BM_LabelPlaneBuild);
BENCHMARK(BM_OracleLabel);
BENCHMARK(BM_TraceGeneration);
BENCHMARK(BM_HierarchyRun);

} // namespace
} // namespace casim

/**
 * Accept the suite-wide observability flags by translating them to
 * google-benchmark's native reporting options before its own parser
 * sees the command line:
 *
 *   --format=json        -> --benchmark_format=json
 *   --stats-out=PATH     -> --benchmark_out=PATH (JSON)
 *
 * `--print-simd-isa` prints the tag-scan ISA the process resolved
 * (avx2/neon/scalar, honouring CASIM_NO_SIMD) and exits; the
 * throughput harness records it next to the numbers it publishes.
 * All other arguments pass through untouched, so the full
 * --benchmark_* surface keeps working.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> translated;
    translated.reserve(static_cast<std::size_t>(argc) + 2);
    translated.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-simd-isa") {
            std::printf("%s\n", casim::simd::tagScanIsa());
            return 0;
        } else if (arg == "--format=json") {
            translated.emplace_back("--benchmark_format=json");
        } else if (arg == "--format=text" || arg == "--format=csv") {
            // Console output is the default; csv maps to the console
            // reporter too since benchmark's csv reporter is
            // deprecated.
        } else if (arg.rfind("--stats-out=", 0) == 0) {
            translated.emplace_back("--benchmark_out=" +
                                    arg.substr(12));
            translated.emplace_back("--benchmark_out_format=json");
        } else {
            translated.emplace_back(arg);
        }
    }
    std::vector<char *> args;
    args.reserve(translated.size());
    for (auto &arg : translated)
        args.push_back(arg.data());
    int translated_argc = static_cast<int>(args.size());
    benchmark::Initialize(&translated_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(translated_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
