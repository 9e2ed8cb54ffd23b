/**
 * @file
 * Shared experiment toolkit used by the bench binaries: the standard
 * capture-then-replay flow plus one-line replay helpers for plain,
 * optimal, and labeler-wrapped policies.
 */

#ifndef CASIM_SIM_EXPERIMENT_HH
#define CASIM_SIM_EXPERIMENT_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/hierarchy_sim.hh"
#include "sim/parallel.hh"
#include "trace/next_use.hh"
#include "trace/trace_io.hh"
#include "wgen/registry.hh"

namespace casim {

class CaptureCache;
class StridePrefetcher;

/** A workload generated, simulated and captured once for replay. */
struct CapturedWorkload
{
    /** Workload metadata. */
    WorkloadInfo info;

    /** Demand references in the generated trace. */
    std::uint64_t demandAccesses = 0;

    /** Distinct 64 B blocks in the generated trace. */
    std::uint64_t footprintBlocks = 0;

    /** Full-hierarchy results at the capture LLC size (LRU). */
    HierarchyRunResult hierarchy;

    /** The captured LLC reference stream. */
    Trace stream{"", 1};

    /**
     * Precomputed next-use chain and label planes from a warm capture
     * bundle, as a borrowed view: the pointers lead straight into the
     * bundle's bytes (the mapping, or the heap buffer a CASIM_NO_MMAP
     * load read them into), which the view keeps alive.  When present (and consistent with `stream`),
     * the first nextUse() call adopts them instead of rebuilding, so
     * warm runs skip both the index build and the oracle's label
     * sweeps.
     */
    std::shared_ptr<const CaptureAuxView> nextUseAux;

    /**
     * Offline next-use index over `stream`, built on first use and
     * memoized, so every (policy, capacity) cell of a bench shares one
     * build instead of re-deriving the per-block reference lists.
     * Thread-safe: concurrent cells serialize on the first build.
     * A CapturedWorkload is move-only (its stream is), and a moved-to
     * one keeps the memoized index.
     */
    const NextUseIndex &nextUse() const { return nextUse({}); }

    /**
     * As nextUse(), with `fanout` parallelizing the build phases.
     * Only safe with a fanout that runs at top level (never from
     * inside a ParallelRunner task — its run() cannot nest).
     */
    const NextUseIndex &nextUse(const IndexFanout &fanout) const;

  private:
    struct LazyIndex
    {
        std::once_flag once;
        std::unique_ptr<const NextUseIndex> index;
    };

    std::shared_ptr<LazyIndex> lazyIndex_ =
        std::make_shared<LazyIndex>();
};

/**
 * The hierarchy configuration a capture actually runs with: the study
 * hierarchy with the core count bound to the workload's thread count
 * and the LLC at the capture geometry (config.llcSmallBytes).  This is
 * the hierarchy captureConfigHash fingerprints.
 */
HierarchyConfig captureHierarchyConfig(const StudyConfig &config);

/**
 * Generate the named workload and run it through the full hierarchy
 * (LRU LLC at config.llcSmallBytes), capturing the LLC stream.
 *
 * The same captured stream is replayed at every LLC size under study:
 * the private-cache filter is replacement- and capacity-independent to
 * first order (back-invalidation feedback is the only coupling), which
 * puts every policy and capacity on an identical reference stream.
 *
 * When config.captureDir is set, `cache` mediates the load-or-
 * regenerate-and-save flow against the on-disk bundle store (and
 * counts the outcome); this always performs the disk round-trip — use
 * CaptureCache::capture() for the memoized resident store.
 */
CapturedWorkload captureWorkload(const std::string &name,
                                 const StudyConfig &config,
                                 CaptureCache &cache);

/** Capture every registered workload serially in suite order. */
std::vector<CapturedWorkload>
captureAllWorkloads(const StudyConfig &config, CaptureCache &cache);

/**
 * Capture every registered workload, fanning the independent captures
 * out over `runner`.  Results land in suite order regardless of
 * scheduling, so the output is identical to the serial overload.
 */
std::vector<CapturedWorkload>
captureAllWorkloads(const StudyConfig &config, CaptureCache &cache,
                    ParallelRunner &runner);

/**
 * Named description of one captured-stream replay.
 *
 * Replaces the old positional replay helpers: every knob a replay can
 * take is a named field, so call sites read as configuration instead
 * of argument soup.
 *
 *   ReplaySpec spec;
 *   spec.policy = "srrip";
 *   spec.geo = config.llcGeometry(bytes);
 *   spec.labeler = &oracle;       // compose the sharing-aware wrapper
 *   spec.config = &config;        // protection budgets for the wrapper
 *   replayMisses(wl.stream, spec);
 */
struct ReplaySpec
{
    /** Base policy: any builtinPolicyNames() entry, or "opt". */
    std::string policy = "lru";

    /** LLC geometry to replay at. */
    CacheGeometry geo;

    /** Next-use index over the stream; required when policy is "opt". */
    const NextUseIndex *nextUse = nullptr;

    /**
     * Fill-time labeler (oracle or predictor).  Non-null composes the
     * sharing-aware victim filter around the base policy, with the
     * protection budgets taken from `config` (required then).
     */
    FillLabeler *labeler = nullptr;

    /** Study parameters for the wrapper; required with `labeler`. */
    const StudyConfig *config = nullptr;

    /**
     * Caller-owned LLC stride prefetcher, attached when non-null so
     * its accuracy can be read back after the replay.  Incompatible
     * with "opt" (see StreamSim::setPrefetcher).
     */
    StridePrefetcher *prefetcher = nullptr;

    /**
     * Set-shard count for the replay (--shards / CASIM_SHARDS).  A
     * power of two; values above the set count are clamped.  Shards
     * only engage for specs the sharded engine reproduces exactly:
     * per-set-state policies (PolicyDesc::perSetState) with no labeler
     * and no prefetcher.  Anything else — set-dueling/SHiP-style
     * global-state policies, the sharing-aware wrapper, oracle or
     * predictor labelers, prefetching — silently falls back to the
     * serial reference engine (counted in sharded_replay.
     * serial_fallbacks), so results never change with K.
     */
    unsigned shards = 1;

    /**
     * Runner to fan the shard replays out on.  The replay splits only
     * when the shards would run concurrently; with no runner, or from
     * inside one of the runner's own tasks (ParallelRunner::
     * runsInline), it replays unsharded — the same result, without
     * walking the stream once per shard (counted in sharded_replay.
     * inline_serial).
     */
    ParallelRunner *shardRunner = nullptr;
};

/** Replay the stream under `spec` and return the demand misses. */
std::uint64_t replayMisses(const Trace &stream, const ReplaySpec &spec);

/** Build the study's oracle labeler for one LLC capacity. */
OracleLabeler makeOracle(const NextUseIndex &index,
                         const StudyConfig &config,
                         std::uint64_t llc_bytes);

/**
 * The distinct (window, near-window) pairs the study's oracles use
 * across its two LLC capacities, with OracleLabeler's "0 means full
 * window" normalization applied — the label-plane keys a bench needs.
 */
std::vector<std::pair<SeqNo, SeqNo>>
studyOracleWindows(const StudyConfig &config);

/**
 * Pre-build every captured workload's next-use index and the label
 * planes for the study's oracle windows, so the replay cells (possibly
 * running under the same runner) find them memoized.  With at least as
 * many workloads as workers the warm-up fans out one task per
 * workload; with fewer, each build itself is parallelized over block
 * ranges.  Must be called at top level, not from inside a runner task.
 */
void warmSharingOracle(const std::vector<CapturedWorkload> &captured,
                       const StudyConfig &config,
                       ParallelRunner &runner);

/** Replay under `spec` and return the sharing characterization. */
SharingSummary replaySharing(const Trace &stream, const ReplaySpec &spec,
                             unsigned num_cores);

} // namespace casim

#endif // CASIM_SIM_EXPERIMENT_HH
