/**
 * @file
 * Table 1: the workload inventory — suite, demand references, memory
 * footprint, LLC reference volume, write fraction, and LLC misses per
 * kilo demand reference (MPKR, our MPKI proxy) under LRU at both
 * studied LLC capacities.
 *
 * Usage: table1_workloads [--scale=1] [--threads=8] [--jobs=N]
 *        [--format={text,csv,json}] [--stats-out=PATH] [--daemon=PATH]
 */

#include <algorithm>

#include "common/table.hh"
#include "sim/bench_driver.hh"
#include "sim/queue.hh"

using namespace casim;

int
main(int argc, char **argv)
{
    BenchDriver driver("table1_workloads", argc, argv);
    const StudyConfig &config = driver.config();

    TablePrinter table(
        "Table 1: multi-threaded workload inventory (" +
            std::to_string(config.workload.threads) + " threads)",
        {"app", "suite", "refs(K)", "fp(MB)", "shared_fp%", "wr%",
         "llc_refs(K)", "mpkr_" + capacityLabel(config.llcSmallBytes),
         "mpkr_" + capacityLabel(config.llcLargeBytes)});

    // Three requests per workload: the capture-time numbers (with the
    // trace-level properties regenerated) and the LRU replay at each
    // studied capacity.
    const auto infos = allWorkloads();
    std::vector<ExperimentRequest> requests;
    for (const auto &info : infos) {
        ExperimentRequest capture;
        capture.kind = "capture";
        capture.workload = info.name;
        capture.traceProps = true;
        capture.config = config;
        requests.push_back(capture);
        for (const std::uint64_t bytes :
             {config.llcSmallBytes, config.llcLargeBytes}) {
            ExperimentRequest replay;
            replay.workload = info.name;
            replay.llcBytes = bytes;
            replay.config = config;
            requests.push_back(replay);
        }
    }
    const auto results = driver.service().runBatch(requests);

    for (std::size_t i = 0; i < infos.size(); ++i) {
        const ExperimentResult &cap = results[i * 3];
        const double shared_fp =
            100.0 *
            static_cast<double>(cap.traceSharedFootprintBlocks) /
            static_cast<double>(
                std::max<std::uint64_t>(1, cap.traceFootprintBlocks));
        const auto mpkr = [&](const ExperimentResult &replay) {
            return 1000.0 * static_cast<double>(replay.misses) /
                   static_cast<double>(cap.demandAccesses);
        };
        table.addRow(
            {infos[i].name, infos[i].suite,
             TablePrinter::fmt(cap.demandAccesses / 1000.0, 0),
             TablePrinter::fmt(
                 cap.footprintBlocks * kBlockBytes / 1048576.0, 1),
             TablePrinter::fmt(shared_fp, 1),
             TablePrinter::fmt(100.0 * cap.writeFraction, 1),
             TablePrinter::fmt(cap.streamRefs / 1000.0, 0),
             TablePrinter::fmt(mpkr(results[i * 3 + 1]), 2),
             TablePrinter::fmt(mpkr(results[i * 3 + 2]), 2)});
    }

    driver.report(table);
    return driver.finish();
}
