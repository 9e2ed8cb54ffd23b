/**
 * @file
 * Ablation A5: thread-count sweep.  How the shared fraction of LLC hit
 * volume and the oracle's gain scale from 2 to 16 threads (the paper
 * studies an 8-core CMP; this bench checks the trend is not an
 * artifact of that choice).
 *
 * Usage: ablation_threads [--scale=1] [--jobs=N]
 *        [--format={text,csv,json}] [--stats-out=PATH] [--daemon=PATH]
 */

#include "common/table.hh"
#include "sim/bench_driver.hh"
#include "sim/queue.hh"

using namespace casim;

int
main(int argc, char **argv)
{
    BenchDriver driver("ablation_threads", argc, argv);
    const Options &options = driver.options();
    const std::vector<unsigned> thread_counts{2, 4, 8};

    TablePrinter table(
        "A5: thread-count sweep, means across all workloads, " +
            std::to_string(driver.config().llcSmallBytes >> 20) +
            "MB LLC",
        {"threads", "llc_miss_ratio", "shared_hit%", "oracle_gain%"});

    // The capture itself depends on the thread count, so each sweep
    // point carries its own config (the queue groups cells by capture
    // identity and captures each point once).  Three requests per
    // (thread count, workload): the capture-time sharing numbers, the
    // LRU baseline, and the oracle-wrapped replay.
    const auto infos = allWorkloads();
    std::vector<ExperimentRequest> requests;
    for (const unsigned threads : thread_counts) {
        StudyConfig config = StudyConfig::fromOptions(options);
        config.workload.threads = threads;
        config.hierarchy.numCores = threads;
        for (const auto &info : infos) {
            ExperimentRequest capture;
            capture.kind = "capture";
            capture.workload = info.name;
            capture.config = config;
            ExperimentRequest lru;
            lru.workload = info.name;
            lru.llcBytes = config.llcSmallBytes;
            lru.config = config;
            ExperimentRequest aware = lru;
            aware.labeler = "oracle";
            requests.push_back(capture);
            requests.push_back(lru);
            requests.push_back(aware);
        }
    }
    const auto results = driver.service().runBatch(requests);

    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        std::vector<double> miss_ratios, shared_fracs, gains;
        for (std::size_t w = 0; w < infos.size(); ++w) {
            const ExperimentResult *cells =
                &results[(t * infos.size() + w) * 3];
            const std::uint64_t lru = cells[1].misses;
            if (cells[1].streamRefs == 0 || lru == 0)
                continue;
            miss_ratios.push_back(
                static_cast<double>(lru) /
                static_cast<double>(cells[1].streamRefs));
            shared_fracs.push_back(
                100.0 * cells[0].hierarchy.sharing.sharedHitFraction);
            gains.push_back(
                100.0 * (1.0 - static_cast<double>(cells[2].misses) /
                                   static_cast<double>(lru)));
        }
        table.addRow(std::to_string(thread_counts[t]),
                     {mean(miss_ratios), mean(shared_fracs),
                      mean(gains)},
                     2);
    }

    driver.report(table);
    return driver.finish();
}
