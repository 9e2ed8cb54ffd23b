/**
 * @file
 * Figure 2: fraction of LLC hit volume served by blocks that are shared
 * during their residency vs. blocks that stay private, per application,
 * at 4 MB and 8 MB — the paper's motivating observation that shared
 * blocks matter more than private blocks.
 *
 * Usage: fig2_shared_hits [--scale=1] [--threads=8]
 *        [--format={text,csv,json}] [--stats-out=PATH] [--daemon=PATH]
 */

#include "common/table.hh"
#include "sim/bench_driver.hh"
#include "sim/queue.hh"

using namespace casim;

int
main(int argc, char **argv)
{
    BenchDriver driver("fig2_shared_hits", argc, argv);
    const StudyConfig &config = driver.config();

    const std::string small = capacityLabel(config.llcSmallBytes);
    const std::string large = capacityLabel(config.llcLargeBytes);
    TablePrinter table(
        "Figure 2: share of LLC hit volume served by shared vs private "
        "residencies (LRU)",
        {"app", "shared_" + small + "%", "private_" + small + "%",
         "shared_" + large + "%", "private_" + large + "%"});

    // One sharing-characterization request per (workload, capacity).
    const auto infos = allWorkloads();
    std::vector<ExperimentRequest> requests;
    for (const auto &info : infos) {
        for (const std::uint64_t bytes :
             {config.llcSmallBytes, config.llcLargeBytes}) {
            ExperimentRequest request;
            request.kind = "sharing";
            request.workload = info.name;
            request.llcBytes = bytes;
            request.config = config;
            requests.push_back(request);
        }
    }
    const auto results = driver.service().runBatch(requests);

    std::vector<double> shared4, shared8;
    for (std::size_t w = 0; w < infos.size(); ++w) {
        std::vector<double> row;
        for (int k = 0; k < 2; ++k) {
            const SharingSummary &sharing =
                results[w * 2 + k].sharing;
            row.push_back(100.0 * sharing.sharedHitFraction);
            row.push_back(100.0 * (1.0 - sharing.sharedHitFraction));
            (k == 0 ? shared4 : shared8)
                .push_back(100.0 * sharing.sharedHitFraction);
        }
        table.addRow(infos[w].name, row, 1);
    }
    table.addSeparator();
    table.addRow("mean",
                 {mean(shared4), 100.0 - mean(shared4), mean(shared8),
                  100.0 - mean(shared8)},
                 1);

    driver.report(table);
    driver.note(
        "A block's residency is 'shared' when at least two distinct "
        "cores touch it\nbetween fill and eviction; hits are "
        "attributed when the residency ends.");
    return driver.finish();
}
