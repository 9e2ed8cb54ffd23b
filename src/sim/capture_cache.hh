/**
 * @file
 * Persistent capture cache: on-disk + in-memory memoization of
 * workload captures.
 *
 * A capture is a pure function of (workload name, workload parameters,
 * hierarchy configuration, capture LLC geometry) — the whole pipeline
 * from trace generation through the MESI hierarchy is deterministic for
 * a given seed.  That makes the captured stream and its statistics safe
 * to reuse across processes: this module fingerprints every input of
 * that function into a 64-bit hash, stores the result as a checksummed
 * capture bundle (see trace_io), and refuses to load anything whose
 * fingerprint, structure or checksum does not match, falling back to
 * regeneration.  Output is therefore byte-identical with the cache
 * cold, warm, or disabled.
 *
 * Bundles are CCAP v4.  A load maps the bundle zero-copy (the warm
 * default: no deserialization, the stream/chain/planes are views into
 * the mapping) unless CASIM_NO_MMAP reads it into memory instead; both
 * run the same decoder, and the read-in load also checks every data
 * checksum.  A bundle of any other version is a stale miss and
 * regenerates.
 *
 * The cache is an injected handle, not a process singleton: a
 * CaptureCache instance owns its own counters and an in-memory
 * resident store of captured workloads (capture()), so a long-running
 * daemon keeps streams, next-use chains and label planes warm across
 * requests.  The resident store can be bounded with
 * setResidentBudget(): once the byte footprint of resident captures
 * exceeds the budget, least-recently-used completed entries are
 * dropped (in-flight users keep their shared references).
 */

#ifndef CASIM_SIM_CAPTURE_CACHE_HH
#define CASIM_SIM_CAPTURE_CACHE_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stats.hh"
#include "sim/experiment.hh"

namespace casim {

/**
 * One capture cache: disk-bundle load/save counters plus an in-memory
 * resident store of captured workloads keyed by configuration hash.
 * All methods are thread-safe; concurrent capture() calls for the same
 * workload serialize on one capture.
 */
class CaptureCache
{
  public:
    CaptureCache();

    CaptureCache(const CaptureCache &) = delete;
    CaptureCache &operator=(const CaptureCache &) = delete;

    /**
     * Counters: disk hits, cold/stale/corrupt misses, saves and save
     * failures, resident-store memo hits, zero-copy map statistics
     * (mmap_maps / bytes_mapped / major_faults) and read-in loads
     * (deserialized).  All counters are atomic, so the group can be
     * rendered (e.g. by the casimd stats op) while captures are
     * running.
     */
    stats::StatGroup &stats() { return group_; }

    /**
     * Resident-store accounting: live entries and bytes, the byte
     * budget, and LRU evictions forced by it.
     */
    stats::StatGroup &residentStats() { return residentGroup_; }

    /** Value of one capture_cache counter by short name, e.g. "hits". */
    std::uint64_t counter(const std::string &name) const;

    /** Value of one resident_store statistic by short name. */
    std::uint64_t residentCounter(const std::string &name) const;

    /**
     * Bound the resident store to `bytes` of captured data (stream
     * records + next-use chain + label-plane codes, whether owned or
     * file-backed).  0 (the default) means unbounded.  Applies to
     * future capture() completions and immediately evicts if the store
     * is already over the new budget.
     */
    void setResidentBudget(std::uint64_t bytes);

    /**
     * The captured workload for (name, config), resident in memory.
     *
     * The first call for a configuration captures the workload (via
     * the disk bundle when config.captureDir is set, regenerating
     * otherwise) and keeps the result — stream, memoized next-use
     * index, label planes — alive in the store; later calls return the
     * same object with zero deserialization, counted in `memo_hits`.
     * This is what lets casimd answer warm repeat requests with no
     * setup cost.
     *
     * @param captured_now Optionally receives whether this call did
     *                     the cold capture (true) or found the result
     *                     already resident/being captured (false).
     */
    std::shared_ptr<const CapturedWorkload>
    capture(const std::string &name, const StudyConfig &config,
            bool *captured_now = nullptr);

    /**
     * Pin the resident entry for `hash` against budget eviction,
     * creating the (not yet captured) slot if absent.  Pins nest; the
     * experiment queue pins every capture identity a lease covers so
     * the `--capture-budget-bytes` LRU can never drop a bundle that an
     * in-flight batch is about to execute against.
     */
    void pinResident(std::uint64_t hash);

    /**
     * Drop one pin from `hash` and, once the entry is unpinned, let
     * the budget reconsider it for eviction.
     */
    void unpinResident(std::uint64_t hash);

    /**
     * Try to load a cached capture bundle from disk: mapped, or read
     * into memory under CASIM_NO_MMAP.  Opens the file once.
     *
     * @param path        Cache-file path.
     * @param config_hash Expected configuration fingerprint.
     * @param out         Receives the capture on success.
     * @param why         Receives a diagnostic on failure ("cannot
     *                    open" for a missing file, else the stale or
     *                    corrupt bundle's error).
     * @return True iff `out` now holds a byte-exact replica of what
     *         capturing from scratch would produce.
     */
    bool load(const std::string &path, std::uint64_t config_hash,
              CapturedWorkload &out, std::string *why);

    /**
     * Persist a capture as a CCAP v4 bundle, creating the directory as
     * needed.  The write is durable: temporary file, fsync, rename
     * into place, directory fsync — a crashed writer can never leave a
     * torn file where the next boot expects a mappable bundle.
     * Best-effort: failures are reported via the return value, never
     * fatal — the cache is an accelerator, not a dependency.
     *
     * @param aux Optional precomputed next-use chain + label planes to
     *            embed so warm loads skip the index build and the
     *            oracle's label sweeps.
     */
    bool save(const std::string &path, std::uint64_t config_hash,
              const CapturedWorkload &captured,
              const CaptureAux *aux = nullptr);

  private:
    /**
     * One resident capture; the once_flag serializes concurrent
     * capture() calls for the same configuration on a single capture
     * without holding the store mutex across it.
     */
    struct ResidentEntry
    {
        std::once_flag once;
        std::shared_ptr<const CapturedWorkload> captured;

        /** Accounted footprint; set once the capture completes. */
        std::uint64_t bytes = 0;

        /** LRU clock value of the most recent capture() touch. */
        std::uint64_t lastUse = 0;

        /** True once `captured` is set; only ready entries evict. */
        bool ready = false;

        /** Nested pin count; pinned entries never evict. */
        unsigned pinned = 0;
    };

    mutable std::mutex mutex_;
    std::map<std::uint64_t, std::shared_ptr<ResidentEntry>> resident_;
    std::uint64_t lruTick_ = 0;

    /** Atomic mirrors feeding the resident_store formulas. */
    std::atomic<std::uint64_t> residentEntries_{0};
    std::atomic<std::uint64_t> residentBytes_{0};
    std::atomic<std::uint64_t> budgetBytes_{0};

    stats::StatGroup group_;
    stats::AtomicCounter &hits_;
    stats::AtomicCounter &coldMisses_;
    stats::AtomicCounter &staleMisses_;
    stats::AtomicCounter &corruptMisses_;
    stats::AtomicCounter &saves_;
    stats::AtomicCounter &saveFailures_;
    stats::AtomicCounter &memoHits_;
    stats::AtomicCounter &mmapMaps_;
    stats::AtomicCounter &bytesMapped_;
    stats::AtomicCounter &deserialized_;

    stats::StatGroup residentGroup_;
    stats::AtomicCounter &evictions_;
    stats::AtomicCounter &evictedBytes_;

    /**
     * Account a completed capture under `hash` and evict
     * least-recently-used ready entries (never `hash` itself) until
     * the store fits the budget.
     */
    void accountAndEnforceBudget(std::uint64_t hash);

    /** Evict LRU ready entries while over budget; mutex_ held. */
    void enforceBudgetLocked(std::uint64_t protect_hash);
};

/**
 * Fingerprint of everything that determines one workload's capture:
 * the workload name and parameters, the effective hierarchy
 * configuration (cores, L1 and LLC geometry, latencies, DRAM model)
 * and the capture-format version.
 */
std::uint64_t captureConfigHash(const std::string &workload,
                                const WorkloadParams &params,
                                const HierarchyConfig &hierarchy);

/** Cache-file path for a workload under `dir` (hash in the name). */
std::string captureCachePath(const std::string &dir,
                             const std::string &workload,
                             std::uint64_t config_hash);

} // namespace casim

#endif // CASIM_SIM_CAPTURE_CACHE_HH
