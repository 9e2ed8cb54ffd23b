/**
 * @file
 * Implementation of the read-only mapping and paging helpers.
 */

#include "trace/mmap_file.hh"

#include <cstdlib>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace casim {

namespace {

std::size_t
pageSize()
{
    static const std::size_t size = [] {
        const long page = ::sysconf(_SC_PAGESIZE);
        return page > 0 ? static_cast<std::size_t>(page)
                        : std::size_t{4096};
    }();
    return size;
}

} // namespace

bool
mmapDisabled()
{
#ifdef CASIM_NO_MMAP
    return true;
#else
    static const bool disabled = [] {
        const char *env = std::getenv("CASIM_NO_MMAP");
        return env != nullptr && *env != '\0';
    }();
    return disabled;
#endif
}

MappedFile::MappedFile(const std::uint8_t *data, std::size_t size)
    : data_(data), size_(size)
{
}

MappedFile::~MappedFile()
{
    if (data_ != nullptr)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
}

std::shared_ptr<const MappedFile>
MappedFile::map(const std::string &path, std::string *error)
{
    const auto fail = [&](const char *what) {
        if (error != nullptr)
            *error = what;
        return std::shared_ptr<const MappedFile>();
    };

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open");
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail("cannot stat");
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        ::close(fd);
        return fail("empty file");
    }
    void *base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (base == MAP_FAILED)
        return fail("mmap failed");
    if (error != nullptr)
        error->clear();
    return std::shared_ptr<const MappedFile>(new MappedFile(
        static_cast<const std::uint8_t *>(base), size));
}

void
MappedFile::adviseSequential() const
{
    ::madvise(const_cast<std::uint8_t *>(data_), size_,
              MADV_SEQUENTIAL);
}

void
MappedFile::willNeed(std::size_t offset, std::size_t len) const
{
    if (len == 0 || offset >= size_)
        return;
    const std::size_t page = pageSize();
    const std::size_t begin = offset & ~(page - 1);
    std::size_t end = offset + std::min(len, size_ - offset);
    end = std::min(size_, (end + page - 1) & ~(page - 1));
    ::madvise(const_cast<std::uint8_t *>(data_) + begin, end - begin,
              MADV_WILLNEED);
}

void
MappedFile::dontNeed(std::size_t offset, std::size_t len) const
{
    if (len == 0 || offset >= size_)
        return;
    const std::size_t page = pageSize();
    // Clamp inward: only whole pages fully inside the range.
    const std::size_t begin = (offset + page - 1) & ~(page - 1);
    const std::size_t end =
        (offset + std::min(len, size_ - offset)) & ~(page - 1);
    if (end <= begin)
        return;
    ::madvise(const_cast<std::uint8_t *>(data_) + begin, end - begin,
              MADV_DONTNEED);
}

TracePager::TracePager(std::shared_ptr<const MappedFile> file,
                       std::size_t trace_offset,
                       std::size_t record_count,
                       std::size_t record_stride,
                       std::size_t epoch_records)
    : file_(std::move(file)), traceOffset_(trace_offset),
      recordCount_(record_count), recordStride_(record_stride),
      epochRecords_(epoch_records == 0 ? 1 : epoch_records)
{
    casim_assert(file_ != nullptr, "TracePager needs a mapping");
}

void
TracePager::willNeedRecords(std::size_t from, std::size_t to) const
{
    from = std::min(from, recordCount_);
    to = std::min(to, recordCount_);
    if (to <= from)
        return;
    file_->willNeed(traceOffset_ + from * recordStride_,
                    (to - from) * recordStride_);
}

void
TracePager::releaseRecords(std::size_t from, std::size_t to) const
{
    from = std::min(from, recordCount_);
    to = std::min(to, recordCount_);
    if (to <= from)
        return;
    file_->dontNeed(traceOffset_ + from * recordStride_,
                    (to - from) * recordStride_);
}

void
PageCursor::advance(std::size_t i)
{
    if (pager_ == nullptr)
        return;
    const std::size_t epoch = pager_->epochRecords();
    const std::size_t e = i / epoch;
    // Epoch e is already advised only when the cursor moved here one
    // boundary at a time; a caller that skips records past a whole
    // epoch gets it advised here along with its successor.
    pager_->willNeedRecords(e * epoch, (e + 2) * epoch);
    if (retire_ && e * epoch > retired_) {
        pager_->releaseRecords(retired_, e * epoch);
        retired_ = e * epoch;
    }
    boundary_ = (e + 1) * epoch;
}

} // namespace casim
