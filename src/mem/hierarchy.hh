/**
 * @file
 * A trace-driven coherent two-level cache hierarchy: per-core private L1
 * caches kept coherent with MESI over an inclusive shared LLC that embeds
 * a full-map directory in its tags.
 *
 * This is the substrate the characterization study runs on: it shapes the
 * LLC reference stream exactly the way a real CMP would (private-cache
 * filtering, upgrade traffic, interventions, back-invalidations), and can
 * capture that stream for offline replay by the policy experiments.
 */

#ifndef CASIM_MEM_HIERARCHY_HH
#define CASIM_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/aligned_array.hh"
#include "core/sharing_tracker.hh"
#include "mem/block.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "trace/trace.hh"

namespace casim {

/**
 * Directory entry and residency record of one LLC way: which L1s hold
 * the block, and what the current residency has seen so far.  Two
 * records share a host cache line.
 */
struct alignas(32) LlcRecord
{
    /** Directory: bit c set iff core c's L1 holds a copy. */
    std::uint64_t sharers = 0;

    /** Bit c set iff core c accessed the block this residency. */
    std::uint64_t touchedMask = 0;

    /** Demand hits served by the block this residency. */
    std::uint64_t hits = 0;

    /** True iff any store touched the block this residency. */
    bool written = false;
};

static_assert(sizeof(LlcRecord) == 32,
              "two LLC records must fill one cache line");

/** Configuration of the simulated CMP memory system. */
struct HierarchyConfig
{
    /** Number of cores, each with a private L1. */
    unsigned numCores = 8;

    /** Private L1 geometry (per core). */
    CacheGeometry l1{32 * 1024, 8, kBlockBytes};

    /** Shared LLC geometry. */
    CacheGeometry llc{4 * 1024 * 1024, 16, kBlockBytes};

    /** L1 hit latency in cycles (timing accounting only). */
    Tick l1Latency = 4;

    /** Additional LLC hit latency in cycles. */
    Tick llcLatency = 34;

    /** Fixed memory latency in cycles (when the DRAM model is off). */
    Tick memLatency = 200;

    /** Use the open-page DRAM model instead of the fixed latency. */
    bool useDramModel = true;

    /** DRAM model parameters. */
    DramConfig dram;
};

/**
 * The coherent CMP memory hierarchy.
 *
 * Its caches are plain tag stores.  The state the protocol and the
 * sharing study need lives here, beside the tags, in dense arrays
 * indexed by (set, way): one MesiState byte per L1 way and one
 * LlcRecord per LLC way.  Each LLC residency's record is handed to
 * the owned SharingTracker when the residency ends.
 */
class Hierarchy
{
  public:
    /**
     * @param config      CMP parameters.
     * @param llc_policy  Factory for the LLC replacement policy.
     *                    L1s always use true LRU.
     */
    Hierarchy(const HierarchyConfig &config,
              const ReplPolicyFactory &llc_policy);

    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;

    /**
     * Capture every demand reference that reaches the LLC (misses from
     * L1s plus S->M upgrades) into `out`; pass nullptr to stop.
     */
    void setCaptureTrace(Trace *out) { capture_ = out; }

    /** Simulate one demand reference from its issuing core. */
    void access(const MemAccess &access);

    /**
     * Simulate a whole trace in order.  The capture trace (if any) is
     * reserved for the worst case up front, since every reference
     * reaches the LLC at most once: growing it by doubling re-copies
     * it and leaves the freed buffers resident.
     */
    void run(const Trace &trace);

    /**
     * Finish the simulation: end the LLC residencies still open so the
     * sharing tracker sees every block's final accounting.
     */
    void finish();

    /** LLC residency sharing characterization (complete after finish()). */
    const SharingTracker &sharing() const { return sharing_; }

    /** Core c's MESI state for block_addr (Invalid if not resident). */
    MesiState l1State(unsigned core, Addr block_addr) const;

    /** The record of block_addr's LLC way, or nullptr if absent. */
    const LlcRecord *llcRecord(Addr block_addr) const;

    /** The shared LLC. */
    Cache &llc() { return *llc_; }
    const Cache &llc() const { return *llc_; }

    /** Core c's private L1. */
    Cache &l1(unsigned core) { return *l1s_.at(core); }
    const Cache &l1(unsigned core) const { return *l1s_.at(core); }

    /** Configuration in effect. */
    const HierarchyConfig &config() const { return config_; }

    /** Demand references simulated so far. */
    std::uint64_t accesses() const { return accesses_.value(); }

    /** Position counter of the LLC reference stream. */
    SeqNo llcSeq() const { return llcSeq_; }

    /** Approximate total access cycles (simple timing model). */
    Tick cycles() const { return cycles_; }

    /** The DRAM model (valid only when config().useDramModel). */
    DramModel &dram() { return *dram_; }
    const DramModel &dram() const { return *dram_; }

    /** Hierarchy-level statistics (coherence events, timing). */
    stats::StatGroup &stats() { return stats_; }
    const stats::StatGroup &stats() const { return stats_; }

  private:
    /** Handle a reference that missed (or needs an upgrade) in L1. */
    void accessLlc(const MemAccess &access, bool is_upgrade);

    /**
     * Invalidate every other core's L1 copy of the block at LLC
     * (set, way).
     */
    void invalidateOtherSharers(unsigned set, unsigned way, Addr block,
                                CoreId keep);

    /**
     * Downgrade a remote M/E copy of the block at LLC (set, way) to S
     * before a read by another core; pulls dirty data into the LLC.
     */
    void downgradeOwner(unsigned set, unsigned way, Addr block,
                        CoreId requester);

    /**
     * Remove `core`'s L1 copy of `block`, which the directory lists.
     * @return True iff the copy was Modified.
     */
    bool invalidateL1Copy(CoreId core, Addr block);

    /** Victim handler for LLC fills: enforce inclusion. */
    void handleLlcVictim(unsigned set, unsigned way);

    /** Victim handler for L1 fills: write back and update directory. */
    void handleL1Victim(CoreId core, unsigned set, unsigned way);

    /** MESI state slot of core's L1 (set, way). */
    MesiState &
    l1StateAt(CoreId core, unsigned set, unsigned way)
    {
        return l1States_[(static_cast<std::size_t>(core) * l1Sets_ +
                          set) * config_.l1.ways + way];
    }

    /** Record slot of LLC (set, way). */
    LlcRecord &
    recordAt(unsigned set, unsigned way)
    {
        return llcRecords_[static_cast<std::size_t>(set) *
                               config_.llc.ways + way];
    }

    HierarchyConfig config_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<DramModel> dram_;

    /** L1 sets per core (config_.l1.numSets(), cached). */
    unsigned l1Sets_;

    /** MESI state per (core, L1 set, way); meaningful only if valid. */
    std::vector<MesiState> l1States_;

    /** Directory and residency record per LLC (set, way). */
    AlignedArray<LlcRecord> llcRecords_;

    /** Fill victim handlers, built once: one per L1, one for the LLC. */
    std::vector<Cache::VictimHandler> l1Victim_;
    Cache::VictimHandler llcVictim_;

    SharingTracker sharing_;
    Trace *capture_ = nullptr;
    SeqNo globalSeq_ = 0;
    SeqNo llcSeq_ = 0;
    Tick cycles_ = 0;

    stats::StatGroup stats_;
    stats::Counter &accesses_;
    stats::Counter &upgrades_;
    stats::Counter &interventions_;
    stats::Counter &backInvals_;
    stats::Counter &invalidationsSent_;
    stats::Counter &memReads_;
    stats::Counter &memWritebacks_;
    stats::Counter &l1Writebacks_;
};

} // namespace casim

#endif // CASIM_MEM_HIERARCHY_HH
