/**
 * @file
 * Figure 7 — the headline oracle study.  The generic sharing-aware
 * oracle labels every fill with whether the block will be actively
 * shared in the near future; the victim filter composed with a base
 * policy protects those fills.  The paper reports the oracle composed
 * with LRU cutting misses by ~6% on average at 4 MB and ~10% at 8 MB;
 * we additionally compose it with SRRIP and DRRIP to show the wrapper
 * is policy-generic.
 *
 * Usage: fig7_oracle [--scale=1] [--threads=8] [--window-factor=4]
 *        [--protection-rounds=128] [--post-rounds=0] [--jobs=N]
 *        [--format={text,csv,json}] [--stats-out=PATH] [--daemon=PATH]
 */

#include "common/table.hh"
#include "sim/bench_driver.hh"
#include "sim/queue.hh"

using namespace casim;

int
main(int argc, char **argv)
{
    BenchDriver driver("fig7_oracle", argc, argv);
    const StudyConfig &config = driver.config();
    const std::vector<std::string> bases{"lru", "srrip", "drrip"};

    const std::string small = capacityLabel(config.llcSmallBytes);
    const std::string large = capacityLabel(config.llcLargeBytes);
    std::vector<std::string> headers{"app"};
    for (const auto &base : bases) {
        headers.push_back("sa+" + base + "_" + small);
        headers.push_back("sa+" + base + "_" + large);
    }
    TablePrinter table(
        "Figure 7: sharing-aware oracle misses normalised to the plain "
        "base policy",
        headers);

    // Two requests per (workload, base policy, LLC capacity): the
    // plain replay and the oracle-wrapped one.  The service warms each
    // workload's next-use index and label planes before the cells run,
    // so no replay stalls on a build (the old warmSharingOracle
    // discipline, now behind the API).
    const auto infos = allWorkloads();
    const std::vector<std::uint64_t> capacities{config.llcSmallBytes,
                                                config.llcLargeBytes};
    const std::size_t cells_per_wl = bases.size() * capacities.size();
    std::vector<ExperimentRequest> requests;
    for (const auto &info : infos) {
        for (const auto &base : bases) {
            for (const std::uint64_t bytes : capacities) {
                ExperimentRequest plain;
                plain.workload = info.name;
                plain.policy = base;
                plain.llcBytes = bytes;
                plain.config = config;
                ExperimentRequest aware = plain;
                aware.labeler = "oracle";
                requests.push_back(plain);
                requests.push_back(aware);
            }
        }
    }
    const auto results = driver.service().runBatch(requests);
    const auto ratio_of = [&](std::size_t cell) {
        const std::uint64_t plain = results[cell * 2].misses;
        const std::uint64_t aware = results[cell * 2 + 1].misses;
        return plain == 0 ? 1.0
                          : static_cast<double>(aware) /
                                static_cast<double>(plain);
    };

    // columns[base][size] -> per-app ratios.
    std::vector<std::vector<std::vector<double>>> columns(
        bases.size(), std::vector<std::vector<double>>(2));
    for (std::size_t w = 0; w < infos.size(); ++w) {
        std::vector<double> row;
        for (std::size_t b = 0; b < bases.size(); ++b) {
            for (std::size_t k = 0; k < capacities.size(); ++k) {
                const double ratio = ratio_of(
                    w * cells_per_wl + b * capacities.size() + k);
                row.push_back(ratio);
                columns[b][k].push_back(ratio);
            }
        }
        table.addRow(infos[w].name, row, 3);
    }
    table.addSeparator();
    std::vector<double> means;
    std::vector<double> reductions;
    for (std::size_t b = 0; b < bases.size(); ++b) {
        for (int k = 0; k < 2; ++k) {
            means.push_back(mean(columns[b][k]));
            reductions.push_back(100.0 * (1.0 - mean(columns[b][k])));
        }
    }
    table.addRow("mean", means, 3);
    table.addRow("reduction%", reductions, 1);

    driver.report(table);
    driver.note(
        "Paper headline: sharing-aware oracle over LRU reduces LLC "
        "misses ~6% (4MB) and\n~10% (8MB) on average; lower ratios "
        "are better.");
    return driver.finish();
}
