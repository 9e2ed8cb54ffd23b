/**
 * @file
 * Coherence inspector: runs one workload through the full hierarchy
 * and reports its MESI traffic profile — upgrades, interventions,
 * invalidations, back-invalidations, writeback flows — together with
 * the DRAM row-buffer behaviour and the timing summary.  Useful for
 * understanding *why* a workload's LLC stream looks the way it does.
 *
 * Usage: example_coherence_inspector [--workload=fluidanimate]
 *        [--scale=0.5] [--threads=8] [--llc-mb=4] [--stats]
 */

#include <iostream>

#include "common/options.hh"
#include "common/table.hh"
#include "core/sharing_tracker.hh"
#include "mem/hierarchy.hh"
#include "mem/repl/factory.hh"
#include "sim/config.hh"
#include "wgen/registry.hh"

using namespace casim;

int
main(int argc, char **argv)
{
    const Options options(argc, argv);
    StudyConfig config = StudyConfig::fromOptions(options);
    if (!options.has("scale"))
        config.workload.scale = 0.5;
    const std::string name =
        options.getString("workload", "fluidanimate");
    const std::uint64_t llc_bytes =
        options.getUint("llc-mb", config.llcSmallBytes >> 20) << 20;

    const Trace trace = makeWorkloadTrace(name, config.workload);
    HierarchyConfig hier = config.hierarchy;
    hier.numCores = config.workload.threads;
    hier.llc = config.llcGeometry(llc_bytes);

    Hierarchy hierarchy(hier, requirePolicyFactory("lru"));
    hierarchy.run(trace);
    hierarchy.finish();
    const SharingTracker &tracker = hierarchy.sharing();

    const auto counter = [&](const char *stat_name) {
        const auto *stat = hierarchy.stats().find(
            std::string("hierarchy.") + stat_name);
        const auto *c = dynamic_cast<const stats::Counter *>(stat);
        return c == nullptr ? std::uint64_t{0} : c->value();
    };
    const double per_kilo =
        1000.0 / static_cast<double>(std::max<std::uint64_t>(
                     1, hierarchy.accesses()));

    std::cout << "Coherence profile of '" << name << "' ("
              << trace.size() << " refs, " << hier.numCores
              << " cores, " << (llc_bytes >> 20) << "MB LLC)\n\n";

    TablePrinter table("Events per kilo demand reference",
                       {"event", "count", "per_kiloref"});
    const auto row = [&](const char *label, std::uint64_t value) {
        table.addRow({label, std::to_string(value),
                      TablePrinter::fmt(value * per_kilo, 3)});
    };
    row("llc_accesses", hierarchy.llc().demandAccesses());
    row("llc_misses", hierarchy.llc().demandMisses());
    row("upgrades (S->M)", counter("upgrades"));
    row("interventions (M/E->S)", counter("interventions"));
    row("invalidations (remote write)",
        counter("invalidations_sent"));
    row("back_invalidations (inclusion)",
        counter("back_invalidations"));
    row("l1_writebacks", counter("l1_writebacks"));
    row("mem_reads", counter("mem_reads"));
    row("mem_writebacks", counter("mem_writebacks"));
    table.print(std::cout);

    std::cout << "Sharing:   " << TablePrinter::fmt(
                     100.0 * tracker.sharedHitFraction(), 1)
              << "% of LLC hit volume served by shared residencies\n";
    if (hier.useDramModel) {
        std::cout << "DRAM:      "
                  << TablePrinter::fmt(
                         100.0 * hierarchy.dram().rowHitRate(), 1)
                  << "% row-buffer hit rate over "
                  << hierarchy.dram().accesses() << " transfers\n";
    }
    std::cout << "Timing:    "
              << TablePrinter::fmt(
                     static_cast<double>(hierarchy.cycles()) /
                         static_cast<double>(trace.size()),
                     2)
              << " cycles per demand reference (simple model)\n";

    if (options.has("stats")) {
        std::cout << "\nFull statistics dump:\n";
        hierarchy.stats().dump(std::cout);
        hierarchy.llc().stats().dump(std::cout);
        tracker.stats().dump(std::cout);
        if (hier.useDramModel)
            hierarchy.dram().stats().dump(std::cout);
    }
    return 0;
}
