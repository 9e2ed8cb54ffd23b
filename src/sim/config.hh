/**
 * @file
 * Study-level configuration: the paper's CMP parameters plus the knobs
 * of the oracle, wrapper and predictors, with command-line overrides.
 */

#ifndef CASIM_SIM_CONFIG_HH
#define CASIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/options.hh"
#include "core/predictor.hh"
#include "mem/hierarchy.hh"
#include "wgen/workload.hh"

namespace casim {

/** Everything an experiment binary needs to configure a run. */
struct StudyConfig
{
    /** Workload generation parameters. */
    WorkloadParams workload;

    /** CMP hierarchy parameters (paper setup: 8 cores, 32 KB L1s). */
    HierarchyConfig hierarchy;

    /** The two LLC capacities the paper evaluates. */
    std::uint64_t llcSmallBytes = 4ULL * 1024 * 1024;
    std::uint64_t llcLargeBytes = 8ULL * 1024 * 1024;

    /** LLC associativity. */
    unsigned llcWays = 16;

    /**
     * Oracle future window as a multiple of the LLC block capacity
     * (window = factor * blocks-in-LLC stream slots).
     */
    double oracleWindowFactor = 4.0;

    /** Pre-share protection rounds of the sharing-aware wrapper. */
    unsigned protectionRounds = 128;

    /** Post-share protection rounds (0 = protectionRounds / 4). */
    unsigned postShareRounds = 0;

    /** Maximum fraction of a set's ways protected at once. */
    double protectionQuota = 0.5;

    /**
     * Near-reuse window of the oracle label as a multiple of the LLC
     * block capacity; 0 uses the full oracle window.
     */
    double nearWindowFactor = 0.0;

    /** Set dueling in the sharing-aware wrapper. */
    bool dueling = true;

    /** Predictor table configuration. */
    PredictorConfig predictor;

    /**
     * Directory of the persistent capture cache; empty disables it.
     * When set, captureWorkload() loads a previously captured stream on
     * a configuration-hash match and regenerates (then saves) otherwise,
     * so warm runs skip the trace generation and MESI hierarchy
     * simulation entirely.  Results are byte-identical either way.
     */
    std::string captureDir;

    /**
     * Set-shard count for captured-stream replays (ReplaySpec::shards).
     * A power of two; 1 keeps every replay on the serial engine.
     * Replays the sharded engine cannot reproduce exactly (global-state
     * policies, labelers, prefetchers) ignore this and stay serial, as
     * do replays whose shards would not run concurrently (see
     * ReplaySpec::shardRunner).
     */
    unsigned shards = 1;

    /** LLC geometry for a given capacity. */
    CacheGeometry llcGeometry(std::uint64_t bytes) const;

    /** Oracle window (stream slots) for a given LLC capacity. */
    SeqNo oracleWindow(std::uint64_t llc_bytes) const;

    /** Oracle near-reuse window (stream slots); 0 = oracleWindow. */
    SeqNo oracleNearWindow(std::uint64_t llc_bytes) const;

    /**
     * Apply command-line overrides: --threads, --scale, --seed,
     * --llc-small-mb, --llc-large-mb, --llc-ways, --window-factor,
     * --protection-rounds, --post-rounds, --quota,
     * --near-factor, --pred-index-bits, --pred-counter-bits,
     * --pred-threshold, --capture-dir.
     *
     * --capture-dir=DIR enables the capture cache in DIR; a bare
     * --capture-dir uses ".capture-cache".  When the flag is absent the
     * CASIM_CAPTURE_DIR environment variable is consulted; absent both,
     * the cache is off.
     *
     * --shards=K sets the replay shard count; when the flag is absent
     * the CASIM_SHARDS environment variable is consulted.  K must be a
     * power of two (0 means 1); anything else is fatal.
     */
    static StudyConfig fromOptions(const Options &options);
};

/**
 * Column label of an LLC capacity in whole MiB ("4mb"), as the
 * --llc-small-mb/--llc-large-mb flags set it.
 */
std::string capacityLabel(std::uint64_t bytes);

} // namespace casim

#endif // CASIM_SIM_CONFIG_HH
