/**
 * @file
 * Implementation of the one-call hierarchy simulation.
 */

#include "sim/hierarchy_sim.hh"

namespace casim {

SharingSummary
SharingSummary::from(const SharingTracker &tracker, unsigned num_cores)
{
    SharingSummary summary;
    summary.sharedHitFraction = tracker.sharedHitFraction();
    summary.sharedHits = tracker.sharedHits();
    summary.privateHits = tracker.privateHits();
    for (unsigned c = 0; c < 4; ++c) {
        const auto cls = static_cast<SharingClass>(c);
        summary.classHits[c] = tracker.hitsByClass(cls);
        summary.classResidencies[c] = tracker.residenciesByClass(cls);
    }
    summary.sharerHits.resize(num_cores);
    for (unsigned c = 1; c <= num_cores; ++c)
        summary.sharerHits[c - 1] = tracker.hitsBySharerCount(c);
    summary.deadResidencies = tracker.deadResidencies();
    return summary;
}

HierarchyRunResult
runHierarchy(const Trace &trace, const HierarchyConfig &config,
             const ReplPolicyFactory &llc_policy, Trace *capture)
{
    Hierarchy hierarchy(config, llc_policy);
    hierarchy.setCaptureTrace(capture);
    hierarchy.run(trace);
    hierarchy.finish();

    HierarchyRunResult result;
    result.demandAccesses = hierarchy.accesses();
    result.llcHits = hierarchy.llc().demandHits();
    result.llcMisses = hierarchy.llc().demandMisses();
    result.llcAccesses = result.llcHits + result.llcMisses;
    result.llcMpkr =
        result.demandAccesses == 0
            ? 0.0
            : 1000.0 * static_cast<double>(result.llcMisses) /
                  static_cast<double>(result.demandAccesses);

    const auto counter = [&](const char *name) {
        const auto *stat = hierarchy.stats().find(
            std::string("hierarchy.") + name);
        const auto *c = dynamic_cast<const stats::Counter *>(stat);
        return c == nullptr ? std::uint64_t{0} : c->value();
    };
    result.upgrades = counter("upgrades");
    result.interventions = counter("interventions");
    result.backInvalidations = counter("back_invalidations");
    result.memReads = counter("mem_reads");
    result.memWritebacks = counter("mem_writebacks");
    result.cycles = hierarchy.cycles();
    result.sharing =
        SharingSummary::from(hierarchy.sharing(), config.numCores);
    return result;
}

} // namespace casim
