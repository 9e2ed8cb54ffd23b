/**
 * @file
 * Trace tool: capture a workload's LLC reference stream to a file,
 * inspect a saved stream, or replay one under a chosen policy — so
 * expensive hierarchy captures can be shared between experiments.  The
 * file is a CCAP v3 capture bundle under a fixed configuration hash.
 *
 * Usage:
 *   example_trace_tool capture --workload=canneal --out=canneal.llc
 *                      [--scale=0.5] [--threads=8] [--llc-mb=4]
 *   example_trace_tool info    --in=canneal.llc
 *   example_trace_tool replay  --in=canneal.llc --policy=drrip
 *                      [--llc-mb=4]
 */

#include <iostream>

#include "common/options.hh"
#include "common/table.hh"
#include "mem/repl/factory.hh"
#include "sim/capture_cache.hh"
#include "sim/experiment.hh"
#include "sim/stream_sim.hh"

using namespace casim;

namespace {

/** The configuration hash every trace-tool bundle is saved under. */
constexpr std::uint64_t kToolHash = 0;

/**
 * Load the stream saved at `path` into `out`; on failure print a
 * one-line diagnostic and return false.
 */
bool
loadStream(const std::string &path, Trace &out)
{
    CaptureCache cache;
    CapturedWorkload loaded;
    std::string why;
    if (!cache.load(path, kToolHash, loaded, &why)) {
        std::cerr << "cannot load '" << path << "': " << why << "\n";
        return false;
    }
    out = std::move(loaded.stream);
    return true;
}

int
doCapture(const Options &options)
{
    StudyConfig config = StudyConfig::fromOptions(options);
    if (!options.has("scale"))
        config.workload.scale = 0.5;
    const std::string name = options.getString("workload", "canneal");
    const std::string out =
        options.getString("out", name + ".llc");

    std::cout << "Capturing LLC stream of '" << name << "'...\n";
    CaptureCache cache;
    const CapturedWorkload wl = captureWorkload(name, config, cache);
    if (!cache.save(out, kToolHash, wl)) {
        std::cerr << "cannot write '" << out << "'\n";
        return 1;
    }
    std::cout << "Wrote " << wl.stream.size() << " LLC references ("
              << wl.demandAccesses << " demand refs upstream) to "
              << out << "\n";
    return 0;
}

int
doInfo(const Options &options)
{
    const std::string in = options.getString("in", "");
    if (in.empty()) {
        std::cerr << "info needs --in=<file>\n";
        return 1;
    }
    Trace trace{"", 1};
    if (!loadStream(in, trace))
        return 1;
    std::cout << "name:             " << trace.name() << "\n"
              << "cores:            " << trace.numCores() << "\n"
              << "references:       " << trace.size() << "\n"
              << "footprint:        "
              << trace.footprintBlocks() * kBlockBytes / 1048576.0
              << " MB\n"
              << "write fraction:   "
              << TablePrinter::fmt(trace.writeFraction(), 4) << "\n"
              << "shared footprint: "
              << trace.sharedFootprintBlocks() << " blocks\n";
    return 0;
}

int
doReplay(const Options &options)
{
    const StudyConfig config = StudyConfig::fromOptions(options);
    const std::string in = options.getString("in", "");
    if (in.empty()) {
        std::cerr << "replay needs --in=<file>\n";
        return 1;
    }
    const std::string policy = options.getString("policy", "lru");
    const std::uint64_t llc_bytes =
        options.getUint("llc-mb", config.llcSmallBytes >> 20) << 20;
    const CacheGeometry geo = config.llcGeometry(llc_bytes);

    Trace trace{"", 1};
    if (!loadStream(in, trace))
        return 1;
    ReplaySpec spec;
    spec.policy = policy;
    spec.geo = geo;
    const auto misses = replayMisses(trace, spec);
    std::cout << policy << " on '" << trace.name() << "' at "
              << (llc_bytes >> 20) << "MB: " << misses
              << " misses / " << trace.size() << " refs (ratio "
              << TablePrinter::fmt(trace.empty()
                                       ? 0.0
                                       : double(misses) / trace.size(),
                                   4)
              << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options(argc, argv);
    const std::string mode = options.positional().empty()
                                 ? "capture"
                                 : options.positional()[0];
    if (mode == "capture")
        return doCapture(options);
    if (mode == "info")
        return doInfo(options);
    if (mode == "replay")
        return doReplay(options);
    std::cerr << "unknown mode '" << mode
              << "' (expected capture | info | replay)\n";
    return 1;
}
