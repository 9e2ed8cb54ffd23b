/**
 * @file
 * Offline per-block reference index over a trace.
 *
 * Precomputes (a) the classic next-use chain used by Belady's OPT and
 * (b) memoized *label planes*: for a given (window, near-window) pair,
 * one O(n) two-pointer sweep labels every trace position with the
 * oracle's fill-time decision (private / shared / vetoed-by-near-
 * window), so labeling a fill is an array lookup instead of an
 * O(window) scan.  Block-keyed queries (scanLabel, coreMaskWithin,
 * residencyStaysShared, nextUseByOther, referenceCount) are served from
 * (c) per-block reference slices with core ids, built only when such a
 * query first arrives.
 *
 * Both the sweeps and the block-keyed queries read the same *grouping*:
 * every position sorted by block, each block's positions a contiguous
 * slice.  It is derived from the chain, not from a hash table: one
 * forward pass gives each position with no predecessor a fresh dense id
 * and carries it along the chain (id[chain[i]] = id[i]), so blocks are
 * numbered in first-appearance order; a prefix sum over per-id counts
 * carves the slices and a scatter pass fills them in trace order, so
 * they come out position-sorted without any comparison sort.  A plane
 * build sweeps a transient grouping and frees it; only the first
 * block-keyed query keeps one resident, together with a block -> id
 * table sized by the block count.  Positions are stored as 32-bit
 * offsets; traces are bounded well below 4G references
 * (checkIndexable()).
 *
 * The index borrows the trace's record buffer instead of copying it:
 * the trace must outlive the index, but *moving* the trace (and
 * whatever owns it) is safe because vector moves keep the heap buffer.
 * The next-use chain and the label-plane codes are likewise borrowable:
 * a warm start adopts them straight out of an mmap'd CCAP v4 bundle
 * (held alive by a shared handle) instead of copying them into vectors.
 */

#ifndef CASIM_TRACE_NEXT_USE_HH
#define CASIM_TRACE_NEXT_USE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "trace/trace.hh"

namespace casim {

/**
 * Optional fan-out hook for the parallelizable build phases (next-use
 * chain fill, label-plane sweeps): called as fanout(n, task), it must
 * run task(0) ... task(n-1), each exactly once, returning when all have
 * finished.  The tasks write disjoint ranges, so any scheduling is
 * safe.  An empty function means "run inline, serially".  The sim layer
 * adapts ParallelRunner::run to this signature; the trace layer itself
 * stays free of threading machinery.
 */
using IndexFanout =
    std::function<void(std::size_t,
                       const std::function<void(std::size_t)> &)>;

/**
 * Process-wide label-plane counters: sweeps run, memo hits, planes
 * adopted from capture bundles, retained slice builds, and the bytes
 * the live indexes' planes and retained slices hold (released when an
 * index is destroyed).  Increments
 * are internally serialized (indexes are shared across worker threads);
 * read them only after the runs of interest have completed.
 */
stats::StatGroup &labelPlaneStats();

/** Value of one label-plane counter by short name, e.g. "builds". */
std::uint64_t labelPlaneCounter(const std::string &name);

/**
 * Record `bytes` of label-plane codes adopted as zero-copy mapped
 * views (the `label_plane.bytes_mapped` counter).  Called by the
 * capture cache when it hands a mapped bundle's planes to an index.
 */
void noteLabelPlaneMappedBytes(std::uint64_t bytes);

/** The chain entry meaning "no later reference to this block". */
inline constexpr std::uint32_t kNoNextUse = 0xffffffffu;

/**
 * The next-use chain over a trace, built in one serial backward pass
 * (an open-addressing map from block to its most recent later
 * position).  chain[i] is the position of the next reference to the
 * block at position i, or kNoNextUse.  This is the capture-time
 * builder; NextUseIndex adopts the result, and -DCASIM_PARANOID builds
 * cross-check it against every grouping derived from it.
 */
std::vector<std::uint32_t> computeNextUseChain(const Trace &trace);

/**
 * Non-owning view of one label plane's per-position codes.  Content
 * (not identity) equality; iteration and indexing match the vector it
 * replaced.
 */
class CodeSpan
{
  public:
    CodeSpan() = default;
    CodeSpan(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::uint8_t operator[](std::size_t i) const { return data_[i]; }
    const std::uint8_t *begin() const { return data_; }
    const std::uint8_t *end() const { return data_ + size_; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

bool operator==(const CodeSpan &a, const CodeSpan &b);

/** Offline next-use and per-block reference index. */
class NextUseIndex
{
  public:
    /** Oracle fill label for one trace position (see LabelPlane). */
    enum Label : std::uint8_t
    {
        /** No second core inside the window: plain private fill. */
        kLabelPrivate = 0,

        /** Shared within the window and reused within the near window. */
        kLabelShared = 1,

        /**
         * Shared within the window, but the block's own next use lies
         * beyond the near window — the oracle vetoes the label.
         */
        kLabelNearVeto = 2,
    };

    /**
     * Precomputed oracle decisions for one (window, nearWindow) pair:
     * codes[i] is the Label of a fill at stream position i.  Valid only
     * for demand fills, where the filled block is the trace record at
     * that position; prefetch fills fall back to scanLabel().
     *
     * The codes are exposed as a CodeSpan; the plane either owns them
     * (a fresh sweep) or borrows them from a loaded bundle, whose
     * lifetime the owning index guarantees.
     */
    struct LabelPlane
    {
        SeqNo window = 0;
        SeqNo nearWindow = 0;
        CodeSpan codes;

        LabelPlane() = default;

        /** Owning: take the code vector (a fresh sweep). */
        LabelPlane(SeqNo window, SeqNo near_window,
                   std::vector<std::uint8_t> owned_codes);

        /** Borrowing: view codes owned elsewhere (mapped bundles). */
        LabelPlane(SeqNo window, SeqNo near_window,
                   const std::uint8_t *codes_data, std::size_t count);

        LabelPlane(const LabelPlane &other);
        LabelPlane &operator=(const LabelPlane &other);

        // Moves are safe with the defaults: the span is copied before
        // owned_ moves, and a vector move keeps its heap buffer.
        LabelPlane(LabelPlane &&other) noexcept = default;
        LabelPlane &operator=(LabelPlane &&other) noexcept = default;

      private:
        std::vector<std::uint8_t> owned_;
    };

    /** A label plane's (window, near-window) key. */
    using WindowPair = std::pair<SeqNo, SeqNo>;

    /**
     * Build the index over the full trace (O(n) time): the next-use
     * chain only.  The per-block slices are derived on the first
     * block-keyed query.  `fanout` is accepted for symmetry with the
     * plane builders; the chain is one serial pass.
     */
    explicit NextUseIndex(const Trace &trace,
                          const IndexFanout &fanout = {});

    /**
     * Adopt a previously computed next-use chain and label planes (from
     * a capture bundle), skipping both the chain build and the plane
     * sweeps.  `chain` must be the exact chain a fresh build over
     * `trace` would produce — capture bundles are checksummed, so this
     * is not revalidated (a fresh build cross-checks it under
     * -DCASIM_PARANOID).  The per-block slices are still derived
     * lazily, so warm runs that only consult the chain and the planes
     * never pay for them.
     */
    NextUseIndex(const Trace &trace, std::vector<std::uint32_t> chain,
                 std::vector<LabelPlane> planes);

    /**
     * Zero-copy adoption from a mapped bundle: borrow the chain (and
     * any borrowing planes) instead of owning them, with `keep_alive`
     * (the mapping) pinning the storage for the index's lifetime.
     */
    NextUseIndex(const Trace &trace, const std::uint32_t *chain,
                 std::size_t chain_size, std::vector<LabelPlane> planes,
                 std::shared_ptr<const void> keep_alive);

    NextUseIndex(const NextUseIndex &) = delete;
    NextUseIndex &operator=(const NextUseIndex &) = delete;

    /** Releases the index's planes and slices from the byte gauges. */
    ~NextUseIndex();

    /**
     * Die with a clear diagnostic when a trace cannot be indexed with
     * 32-bit position offsets (either the size overflows or a position
     * would collide with the index's "no next use" sentinel).  Called
     * by the constructors; public so the guard is unit-testable with a
     * mocked size.
     */
    static void checkIndexable(std::size_t trace_size);

    /** Position of the next reference to the same block, or kSeqNever. */
    SeqNo
    nextUse(SeqNo i) const
    {
        const std::uint32_t n = chain_[i];
        return n == kNone ? kSeqNever : n;
    }

    /** The raw next-use chain (kNoNextUse-terminated positions). */
    const std::uint32_t *chainData() const { return chain_; }

    /** Number of references the index was built over. */
    std::size_t size() const { return chainSize_; }

    /** Block-aligned address of the trace record at position i. */
    Addr blockAt(SeqNo i) const { return refs_[i].blockAddr(); }

    /**
     * Count distinct cores referencing `block` within stream positions
     * [from, from + window), stopping early once `cap` cores are seen.
     *
     * @param block  Block-aligned address.
     * @param from   First stream position considered (inclusive).
     * @param window Number of stream positions scanned.
     * @param cap    Early-exit threshold (e.g. 2 for a shared test).
     */
    unsigned distinctCoresFrom(Addr block, SeqNo from, SeqNo window,
                               unsigned cap) const;

    /**
     * True iff at least two distinct cores reference `block` within
     * [from, from + window).  This is the oracle's fill-time SHARED
     * label.
     */
    bool
    sharedWithin(Addr block, SeqNo from, SeqNo window) const
    {
        return distinctCoresFrom(block, from, window, 2) >= 2;
    }

    /**
     * Bitmask of the cores referencing `block` within stream positions
     * [from, from + window).
     */
    std::uint64_t coreMaskWithin(Addr block, SeqNo from,
                                 SeqNo window) const;

    /**
     * True iff `block`'s residency "would still be shared": its window
     * [from, from + window) contains at least one reference and the
     * union of `prior_mask` (cores that already touched the residency)
     * with the cores referencing it inside the window spans >= 2 cores.
     * Equivalent to popCount(prior_mask | coreMaskWithin(...)) >= 2
     * with coreMaskWithin(...) != 0, but exits the scan as soon as the
     * verdict is decided.  `*has_future` (when non-null) receives
     * whether the window contained any reference at all.
     */
    bool residencyStaysShared(Addr block, SeqNo from, SeqNo window,
                              std::uint64_t prior_mask,
                              bool *has_future = nullptr) const;

    /**
     * Position of the first reference to `block` at or after `from` that
     * is issued by a core other than `by`, or kSeqNever.
     */
    SeqNo nextUseByOther(Addr block, SeqNo from, CoreId by) const;

    /** Total number of references to `block` in the whole trace. */
    std::size_t referenceCount(Addr block) const;

    /**
     * Software-prefetch the index state a query for `block` will touch
     * first (its block-table slot).  The only caller is
     * AwarenessScorer::onEviction, which prefetches the victim and
     * every valid way of the set before querying any of them: one
     * eviction issues up to a set's worth of block-table probes, and
     * prefetching them first overlaps their cache misses instead of
     * serializing them (fig6 runs measurably faster with it).  Pure
     * performance hint; a no-op until the slices have been built by a
     * first real query.
     */
    void prefetchBlock(Addr block) const;

    /**
     * The oracle's label for a fill of `block` at stream position
     * `from`, computed by scanning the block's reference list (the
     * pre-label-plane code path).  The near-window veto follows the
     * *position's* next-use chain entry, exactly as the scanning
     * labeler did — for a prefetch fill whose block differs from the
     * trace record at `from`, that is deliberately the record's chain,
     * preserving the historical labeling byte for byte.
     */
    std::uint8_t scanLabel(Addr block, SeqNo from, SeqNo window,
                           SeqNo near_window) const;

    /**
     * One O(n) two-pointer sweep labeling every trace position for the
     * given (window, near_window) pair.  Uncached; labelPlane() is the
     * memoizing front end.  Sweeps the retained slices when a
     * block-keyed query has built them, else a transient grouping that
     * is freed on return.  `fanout` parallelizes over block ranges.
     */
    LabelPlane computeLabelPlane(SeqNo window, SeqNo near_window,
                                 const IndexFanout &fanout = {}) const;

    /**
     * The memoized label plane for (window, near_window), built on
     * first request.  Thread-safe; the returned reference stays valid
     * for the index's lifetime.
     */
    const LabelPlane &labelPlane(SeqNo window, SeqNo near_window,
                                 const IndexFanout &fanout = {}) const;

    /**
     * labelPlane() for several pairs at once, in `pairs` order: the
     * planes not yet memoized are swept over one shared grouping
     * instead of one grouping each.
     */
    std::vector<const LabelPlane *>
    labelPlanes(const std::vector<WindowPair> &pairs,
                const IndexFanout &fanout = {}) const;

  private:
    static constexpr std::uint32_t kNone = kNoNextUse;

    /** Flat per-block reference slices (see file comment). */
    struct Grouping
    {
        /**
         * Dense block id (first-appearance order) -> first entry in
         * pos/core; blockCount() + 1 entries.
         */
        std::vector<std::uint32_t> sliceBegin;

        /** All reference positions, grouped by block, sorted within. */
        std::vector<std::uint32_t> pos;

        /** Issuing core of pos[k]. */
        std::vector<CoreId> core;

        std::uint32_t
        blockCount() const
        {
            return static_cast<std::uint32_t>(sliceBegin.size() - 1);
        }
    };

    /**
     * One open-addressing slot of the retained block table: a 32-bit
     * block number (kBlockNumberLimit = empty) and its dense id.  The
     * block address itself is never stored per id.
     */
    struct BlockSlot
    {
        std::uint32_t number;
        std::uint32_t id;
    };

    /** View of one block's slice. */
    struct Span
    {
        const std::uint32_t *pos = nullptr;
        const CoreId *core = nullptr;
        std::size_t count = 0;
    };

    void adoptPlanes(std::vector<LabelPlane> planes);
    Grouping groupByChain() const;
    void ensureSlices() const;
    std::uint64_t sliceBytes() const;
    Span spanFor(Addr block) const;
    std::vector<LabelPlane>
    computeLabelPlanes(const std::vector<WindowPair> &pairs,
                       const IndexFanout &fanout) const;
    static LabelPlane sweepPlane(const Grouping &grouping, SeqNo window,
                                 SeqNo near_window,
                                 const IndexFanout &fanout);

    /** The trace's record buffer (owned by the trace, not the index). */
    const MemAccess *refs_ = nullptr;

    /**
     * The next-use chain: points at chainOwned_ (eager build, owned
     * adoption) or into storage pinned by keepAlive_ (mapped bundles).
     */
    std::vector<std::uint32_t> chainOwned_;
    const std::uint32_t *chain_ = nullptr;
    std::size_t chainSize_ = 0;
    std::shared_ptr<const void> keepAlive_;

    /** The trace's pager, so the grouping build streams mapped pages. */
    std::shared_ptr<const TracePager> pager_;

    /** The retained grouping and block table (block-keyed queries). */
    mutable std::once_flag slicesOnce_;
    mutable Grouping slices_;
    mutable std::vector<BlockSlot> table_;
    mutable std::size_t tableMask_ = 0;

    /** Set (release) once the retained slices are built; lets plane
     *  builds and prefetchBlock peek at them without taking the
     *  once_flag's synchronization path. */
    mutable std::atomic<bool> slicesReady_{false};

    mutable std::mutex planeMutex_;
    mutable std::map<WindowPair, LabelPlane> planes_;
};

/** Content equality (owned and borrowed planes compare equal). */
inline bool
operator==(const NextUseIndex::LabelPlane &a,
           const NextUseIndex::LabelPlane &b)
{
    return a.window == b.window && a.nearWindow == b.nearWindow &&
           a.codes == b.codes;
}

} // namespace casim

#endif // CASIM_TRACE_NEXT_USE_HH
