/**
 * @file
 * Implementation of the trace container.
 */

#include "trace/trace.hh"

#include <algorithm>
#include <ios>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/mmap_file.hh"

namespace casim {

Trace::Trace(std::string name, unsigned num_cores)
    : name_(std::move(name)), numCores_(num_cores)
{
    casim_assert(num_cores >= 1 && num_cores <= kMaxCores,
                 "unsupported core count ", num_cores);
}

Trace
Trace::view(std::string name, unsigned num_cores,
            const MemAccess *records, std::size_t count,
            std::shared_ptr<const void> keep_alive,
            std::shared_ptr<const TracePager> pager)
{
    Trace trace(std::move(name), num_cores);
    casim_assert(records != nullptr || count == 0,
                 "trace view needs a record buffer");
    trace.data_ = records;
    trace.size_ = count;
    trace.view_ = true;
    trace.keepAlive_ = std::move(keep_alive);
    trace.pager_ = std::move(pager);
    return trace;
}

Trace::Trace(Trace &&other) noexcept
    : name_(std::move(other.name_)), numCores_(other.numCores_),
      owned_(std::move(other.owned_)), size_(other.size_),
      view_(other.view_), keepAlive_(std::move(other.keepAlive_)),
      pager_(std::move(other.pager_))
{
    // A vector move keeps the heap buffer, so the owned pointer stays
    // valid; a view's pointer is external either way.
    data_ = view_ ? other.data_ : owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.view_ = false;
}

Trace &
Trace::operator=(Trace &&other) noexcept
{
    if (this == &other)
        return *this;
    name_ = std::move(other.name_);
    numCores_ = other.numCores_;
    owned_ = std::move(other.owned_);
    size_ = other.size_;
    view_ = other.view_;
    keepAlive_ = std::move(other.keepAlive_);
    pager_ = std::move(other.pager_);
    data_ = view_ ? other.data_ : owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.view_ = false;
    return *this;
}

void
refuseAccess(Addr addr, PC pc)
{
    if (blockNumber(addr) >= kBlockNumberLimit)
        casim_fatal("address 0x", std::hex, addr, std::dec,
                    " is beyond the 32-bit block-number range");
    casim_fatal("PC 0x", std::hex, pc, std::dec,
                " is beyond the 32-bit PC range");
}

void
Trace::append(const MemAccess &access)
{
    casim_assert(!view_, "cannot append to a trace view (", name_, ")");
    casim_assert(access.core < numCores_, "core id ",
                 unsigned(access.core), " out of range in trace ", name_);
    if (access.block >= kBlockNumberLimit)
        casim_fatal("address 0x", std::hex, access.blockAddr(), std::dec,
                    " in trace ", name_, " is beyond the 32-bit ",
                    "block-number range");
    owned_.push_back(access);
    data_ = owned_.data();
    size_ = owned_.size();
}

void
Trace::append(Addr addr, PC pc, CoreId core, bool is_write)
{
    append(makeAccess(addr, pc, core, is_write));
}

void
Trace::reserve(std::size_t n)
{
    casim_assert(!view_, "cannot reserve on a trace view (", name_, ")");
    if (n > owned_.capacity())
        owned_.reserve(std::max(n, 2 * owned_.capacity()));
    data_ = owned_.data();
}

std::size_t
Trace::footprintBlocks() const
{
    // Open-addressing set of block addresses kept at <= 50% load by
    // doubling.  Sized up front for a footprint of an eighth of the
    // references, about the generated workloads' median; growing from
    // a small table measured slower.  kAddrInvalid, never
    // block-aligned, marks empty slots.
    std::size_t cap = 16;
    while (cap < size_ / 4)
        cap <<= 1;
    std::vector<Addr> slots(cap, kAddrInvalid);
    std::size_t mask = slots.size() - 1;
    std::size_t count = 0;
    const auto slotOf = [&](Addr block) {
        std::size_t slot = mixAddr(block) & mask;
        while (slots[slot] != kAddrInvalid && slots[slot] != block)
            slot = (slot + 1) & mask;
        return slot;
    };
    PageCursor cursor(pager_.get(), /*retire=*/false);
    for (std::size_t i = 0; i < size_; ++i) {
        cursor.touch(i);
        const Addr block = data_[i].blockAddr();
        const std::size_t slot = slotOf(block);
        if (slots[slot] == block)
            continue;
        slots[slot] = block;
        if (2 * ++count <= slots.size())
            continue;
        std::vector<Addr> old(2 * slots.size(), kAddrInvalid);
        old.swap(slots);
        mask = slots.size() - 1;
        for (const Addr held : old)
            if (held != kAddrInvalid)
                slots[slotOf(held)] = held;
    }
    return count;
}

double
Trace::writeFraction() const
{
    if (size_ == 0)
        return 0.0;
    std::size_t writes = 0;
    PageCursor cursor(pager_.get(), /*retire=*/false);
    for (std::size_t i = 0; i < size_; ++i) {
        cursor.touch(i);
        writes += data_[i].isWrite ? 1 : 0;
    }
    return static_cast<double>(writes) / static_cast<double>(size_);
}

std::size_t
Trace::sharedFootprintBlocks() const
{
    // Map block -> (first core seen, shared flag).
    std::unordered_map<Addr, std::pair<CoreId, bool>> seen;
    seen.reserve(size_ / 8 + 16);
    PageCursor cursor(pager_.get(), /*retire=*/false);
    for (std::size_t i = 0; i < size_; ++i) {
        cursor.touch(i);
        const MemAccess &access = data_[i];
        auto [it, inserted] =
            seen.try_emplace(access.blockAddr(),
                             std::make_pair(access.core, false));
        if (!inserted && it->second.first != access.core)
            it->second.second = true;
    }
    std::size_t shared = 0;
    for (const auto &[addr, info] : seen)
        shared += info.second ? 1 : 0;
    return shared;
}

} // namespace casim
