/**
 * @file
 * Container for a globally interleaved memory reference trace.
 *
 * A Trace is either *owned* (a std::vector of records, the historical
 * fully resident representation) or a *view* over an externally owned
 * record buffer — in practice the trace section of a CCAP v4 bundle
 * (mapped, or read into memory), kept alive by a shared handle.  Both
 * variants expose the same contiguous `const MemAccess *` storage, so
 * replay loops, SIMD kernels and the next-use index are
 * representation-agnostic; a mapped view additionally carries a
 * TracePager so forward-streaming consumers can bound their resident
 * trace pages to O(epoch).
 */

#ifndef CASIM_TRACE_TRACE_HH
#define CASIM_TRACE_TRACE_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/access.hh"

namespace casim {

class TracePager;

/**
 * A named, globally interleaved sequence of memory references.
 *
 * The interleaving order is the order in which references reach the
 * memory system, so the same container serves both generated workload
 * traces (all demand references) and captured LLC streams (references
 * that missed in private caches).
 */
class Trace
{
  public:
    /**
     * @param name     Human-readable workload name (e.g. "canneal").
     * @param num_cores Number of distinct cores that may appear.
     */
    Trace(std::string name, unsigned num_cores);

    /**
     * A zero-copy view over `count` records at `records`, kept alive by
     * `keep_alive` (typically the mapping the records live in).  Views
     * are read-only: append() and reserve() are fatal on them.
     *
     * @param pager Optional paging helper for the record range, handed
     *              to forward-streaming consumers via pager().
     */
    static Trace view(std::string name, unsigned num_cores,
                      const MemAccess *records, std::size_t count,
                      std::shared_ptr<const void> keep_alive,
                      std::shared_ptr<const TracePager> pager = nullptr);

    /** Move-only: a copy of a resident stream is never needed. */
    Trace(const Trace &) = delete;
    Trace &operator=(const Trace &) = delete;
    Trace(Trace &&other) noexcept;
    Trace &operator=(Trace &&other) noexcept;

    /**
     * Append one reference; core id must be < numCores() and the block
     * number below kBlockNumberLimit.
     */
    void append(const MemAccess &access);

    /** Append a reference packed by makeAccess() (fatal if it does
     *  not fit the record). */
    void append(Addr addr, PC pc, CoreId core, bool is_write);

    /** Number of references. */
    std::size_t size() const { return size_; }

    /** True iff the trace holds no references. */
    bool empty() const { return size_ == 0; }

    /** Reference at position i. */
    const MemAccess &operator[](std::size_t i) const { return data_[i]; }

    /** Contiguous record storage (null when empty). */
    const MemAccess *data() const { return data_; }

    /** Workload name. */
    const std::string &name() const { return name_; }

    /** Number of cores the trace was generated for. */
    unsigned numCores() const { return numCores_; }

    /**
     * Reserve storage for at least n references (owned traces only).
     * Growth beyond the current capacity at least doubles it, so
     * reserving ahead of each of many appended phases still copies
     * the records only O(log) times.
     */
    void reserve(std::size_t n);

    /** Iteration support. */
    const MemAccess *begin() const { return data_; }
    const MemAccess *end() const { return data_ + size_; }

    /** True when this trace is a view over an external buffer. */
    bool isView() const { return view_; }

    /**
     * The view's paging helper, or null for owned traces (and views
     * without one).  Streaming consumers drive a PageCursor over it.
     */
    const TracePager *pager() const { return pager_.get(); }

    /** Shared handle to the pager (for indexes that outlive a copy). */
    const std::shared_ptr<const TracePager> &pagerShared() const
    {
        return pager_;
    }

    /** Number of distinct 64-byte blocks referenced (footprint). */
    std::size_t footprintBlocks() const;

    /** Fraction of references that are writes. */
    double writeFraction() const;

    /**
     * Number of distinct blocks referenced by two or more distinct cores
     * anywhere in the trace (trace-lifetime shared footprint).
     */
    std::size_t sharedFootprintBlocks() const;

  private:
    std::string name_;
    unsigned numCores_;

    /** Owned storage; empty for views. */
    std::vector<MemAccess> owned_;

    /** Contiguous records: owned_.data() or the view target. */
    const MemAccess *data_ = nullptr;
    std::size_t size_ = 0;

    bool view_ = false;
    std::shared_ptr<const void> keepAlive_;
    std::shared_ptr<const TracePager> pager_;
};

} // namespace casim

#endif // CASIM_TRACE_TRACE_HH
