/**
 * @file
 * Read-only memory-mapped file support for the out-of-core trace
 * substrate.
 *
 * MappedFile is the RAII mapping; TracePager turns record-unit ranges
 * of a mapped trace section into page-clamped madvise() calls; and
 * PageCursor is the forward streaming helper the replay loops thread a
 * trace position through, so a replay keeps only O(epoch) trace pages
 * resident: as the cursor crosses an epoch boundary it
 * MADV_WILLNEEDs the next epoch and (optionally) MADV_DONTNEEDs the
 * epochs it has finished.  All advice is a pure hint on a read-only
 * private file mapping — dropped pages refault from the page cache with
 * identical content — so the advised and unadvised paths are
 * byte-identical by construction.
 *
 * CASIM_NO_MMAP (a CMake option and an environment variable, mirroring
 * CASIM_NO_SIMD) disables mapping entirely; bundles are then read whole
 * into memory and decoded the same way, with no pager.
 */

#ifndef CASIM_TRACE_MMAP_FILE_HH
#define CASIM_TRACE_MMAP_FILE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace casim {

/**
 * True when memory-mapped trace I/O is disabled, either compiled out
 * (-DCASIM_NO_MMAP) or switched off at run time by a non-empty
 * CASIM_NO_MMAP environment variable.  Cached per process.
 */
bool mmapDisabled();

/** One read-only private mapping of a whole file. */
class MappedFile
{
  public:
    /**
     * Map `path` read-only; returns null and sets `error` on failure
     * (missing file, empty file, mmap failure).
     */
    static std::shared_ptr<const MappedFile>
    map(const std::string &path, std::string *error = nullptr);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** First mapped byte. */
    const std::uint8_t *data() const { return data_; }

    /** Mapped length in bytes (the file size at map time). */
    std::size_t size() const { return size_; }

    /** Hint sequential access over the whole mapping. */
    void adviseSequential() const;

    /**
     * Hint that [offset, offset + len) will be needed soon.  The range
     * is clamped outward to page boundaries and to the mapping.
     */
    void willNeed(std::size_t offset, std::size_t len) const;

    /**
     * Hint that [offset, offset + len) is no longer needed.  Clamped
     * inward to whole pages so a page shared with a neighbouring range
     * is never dropped.  Data stays valid either way: dropped pages
     * refault with identical content.
     */
    void dontNeed(std::size_t offset, std::size_t len) const;

  private:
    MappedFile(const std::uint8_t *data, std::size_t size);

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * Record-unit paging over the trace section of a mapped capture
 * bundle: converts [from_record, to_record) ranges into byte-range
 * advice on the underlying mapping.  Shared (via shared_ptr) between
 * the Trace view and every index built over it.
 */
class TracePager
{
  public:
    /**
     * @param file          The mapping the trace section lives in.
     * @param trace_offset  Byte offset of record 0 in the mapping.
     * @param record_count  Records in the section.
     * @param record_stride Bytes per record.
     * @param epoch_records Records per epoch segment (>= 1).
     */
    TracePager(std::shared_ptr<const MappedFile> file,
               std::size_t trace_offset, std::size_t record_count,
               std::size_t record_stride, std::size_t epoch_records);

    /** Records per epoch segment. */
    std::size_t epochRecords() const { return epochRecords_; }

    /** Records in the trace section. */
    std::size_t recordCount() const { return recordCount_; }

    /** Advise that records [from, to) will be needed soon. */
    void willNeedRecords(std::size_t from, std::size_t to) const;

    /** Advise that records [from, to) are done (DONTNEED, clamped). */
    void releaseRecords(std::size_t from, std::size_t to) const;

  private:
    std::shared_ptr<const MappedFile> file_;
    std::size_t traceOffset_ = 0;
    std::size_t recordCount_ = 0;
    std::size_t recordStride_ = 0;
    std::size_t epochRecords_ = 1;
};

/**
 * Forward streaming cursor over a paged trace: the replay loops call
 * touch(i) with non-decreasing record indices; on crossing into epoch
 * e the cursor prefetches epoch e+1 and (when retiring) releases every
 * epoch before e.  A null pager makes every call a no-op, so the same
 * loops serve owned (fully resident) traces unchanged.
 */
class PageCursor
{
  public:
    /**
     * @param pager  The trace's pager, or null for a resident trace.
     * @param retire Whether finished epochs should be released; a pass
     *               that others will re-read (a replay shard, whose
     *               siblings walk the same pages; index builds) keeps
     *               them.
     */
    explicit PageCursor(const TracePager *pager, bool retire = true)
        : pager_(pager), retire_(retire)
    {
        if (pager_ == nullptr || pager_->recordCount() == 0)
            return;
        const std::size_t epoch = pager_->epochRecords();
        pager_->willNeedRecords(
            0, std::min(2 * epoch, pager_->recordCount()));
        boundary_ = epoch;
    }

    /** Note that record `i` is about to be read; cheap when inside the
     *  current epoch (one compare). */
    void
    touch(std::size_t i)
    {
        if (i < boundary_)
            return;
        advance(i);
    }

  private:
    void advance(std::size_t i);

    const TracePager *pager_ = nullptr;
    /** First record index outside the already-advised range. */
    std::size_t boundary_ = static_cast<std::size_t>(-1);
    /** First record of the oldest epoch not yet released. */
    std::size_t retired_ = 0;
    bool retire_ = true;
};

} // namespace casim

#endif // CASIM_TRACE_MMAP_FILE_HH
