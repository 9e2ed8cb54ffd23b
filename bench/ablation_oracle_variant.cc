/**
 * @file
 * Ablation A4: oracle label definitions.  Compares three fill-time
 * label sources feeding the same sharing-aware victim filter:
 *
 *  - future-window oracle (the study's primary definition);
 *  - the same oracle with a tight near-reuse qualifier (label only
 *    blocks whose next use falls within one LLC capacity of stream
 *    slots — trades coverage for label precision);
 *  - residency-replay oracle (labels the k-th fill of each block with
 *    the sharing outcome its k-th residency had in a recorded baseline
 *    run).
 *
 * Usage: ablation_oracle_variant [--scale=1] [--threads=8]
 *        [--format={text,csv,json}] [--stats-out=PATH] [--daemon=PATH]
 */

#include "common/table.hh"
#include "sim/bench_driver.hh"
#include "sim/queue.hh"

using namespace casim;

int
main(int argc, char **argv)
{
    BenchDriver driver("ablation_oracle_variant", argc, argv);
    const StudyConfig &config = driver.config();

    const std::string small = capacityLabel(config.llcSmallBytes);
    const std::string large = capacityLabel(config.llcLargeBytes);
    TablePrinter table(
        "A4: oracle label variants, sa+LRU misses / LRU misses",
        {"app", "future_" + small, "tight_" + small, "replay_" + small,
         "future_" + large, "tight_" + large, "replay_" + large});

    // Per (workload, capacity): the LRU baseline and the three label
    // variants.  The tight qualifier is the near-window factor at 1.0
    // LLC capacities — expressed as a config point, not a bespoke
    // labeler construction.
    const auto infos = allWorkloads();
    std::vector<ExperimentRequest> requests;
    for (const auto &info : infos) {
        for (const std::uint64_t bytes :
             {config.llcSmallBytes, config.llcLargeBytes}) {
            ExperimentRequest lru;
            lru.workload = info.name;
            lru.llcBytes = bytes;
            lru.config = config;
            ExperimentRequest future = lru;
            future.labeler = "oracle";
            ExperimentRequest tight = future;
            tight.config.nearWindowFactor = 1.0;
            ExperimentRequest replay = lru;
            replay.labeler = "residency";
            requests.push_back(lru);
            requests.push_back(future);
            requests.push_back(tight);
            requests.push_back(replay);
        }
    }
    const auto results = driver.service().runBatch(requests);

    std::vector<double> cols[6];
    for (std::size_t w = 0; w < infos.size(); ++w) {
        std::vector<double> row;
        int col = 0;
        for (int k = 0; k < 2; ++k) {
            const ExperimentResult *cells =
                &results[(w * 2 + k) * 4];
            const std::uint64_t lru = cells[0].misses;
            const double base =
                lru == 0 ? 1.0 : static_cast<double>(lru);
            for (int v = 1; v <= 3; ++v) {
                const double ratio = cells[v].misses / base;
                row.push_back(ratio);
                cols[col++].push_back(ratio);
            }
        }
        table.addRow(infos[w].name, row, 3);
    }
    table.addSeparator();
    table.addRow("mean",
                 {mean(cols[0]), mean(cols[1]), mean(cols[2]),
                  mean(cols[3]), mean(cols[4]), mean(cols[5])},
                 3);

    driver.report(table);
    return driver.finish();
}
