/**
 * @file
 * Implementation of the offline per-block reference index and the
 * label-plane sweeps.
 */

#include "trace/next_use.hh"

#include <algorithm>
#include <array>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/mmap_file.hh"

namespace casim {

namespace {

/**
 * The label-plane counters.  Atomic so concurrent plane builds (and a
 * casimd stats render racing them) need no extra serialization.
 */
struct PlaneStats
{
    stats::StatGroup group{"label_plane"};
    stats::AtomicCounter &builds = group.addAtomicCounter(
        "builds", "label planes built by the O(n) two-pointer sweep");
    stats::AtomicCounter &memoHits = group.addAtomicCounter(
        "memo_hits", "plane requests served from the in-memory memo");
    stats::AtomicCounter &adopted = group.addAtomicCounter(
        "adopted", "planes adopted from a warm capture bundle");
    stats::AtomicCounter &bytes = group.addAtomicCounter(
        "bytes", "bytes held by built or adopted label planes");
    stats::AtomicCounter &bytesMapped = group.addAtomicCounter(
        "bytes_mapped",
        "plane code bytes served zero-copy from mmap'd bundles");
};

PlaneStats &
planeStats()
{
    // Never destroyed: ~NextUseIndex writes label_plane.bytes, and an
    // index with static storage may be destroyed after a function-local
    // singleton built later than it.
    static PlaneStats *stats = new PlaneStats;
    return *stats;
}

} // namespace

stats::StatGroup &
labelPlaneStats()
{
    return planeStats().group;
}

std::uint64_t
labelPlaneCounter(const std::string &name)
{
    const auto *stat = planeStats().group.find("label_plane." + name);
    const auto value = stats::counterValue(stat);
    casim_assert(value.has_value(), "unknown label-plane counter '",
                 name, "'");
    return *value;
}

void
noteLabelPlaneMappedBytes(std::uint64_t bytes)
{
    if (bytes != 0)
        planeStats().bytesMapped += bytes;
}

bool
operator==(const CodeSpan &a, const CodeSpan &b)
{
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::equal(a.begin(), a.end(), b.begin()));
}

std::vector<std::uint32_t>
computeNextUseChain(const Trace &trace)
{
    NextUseIndex::checkIndexable(trace.size());
    const std::size_t n = trace.size();
    std::vector<std::uint32_t> chain(n, kNoNextUse);
    if (n == 0)
        return chain;

    // Open-addressing map block -> most recent later position, probed
    // backward over the trace; emptiness lives in the value array so
    // address 0 needs no special casing.
    std::size_t cap = 16;
    while (cap < 2 * n)
        cap <<= 1;
    const std::size_t mask = cap - 1;
    std::vector<Addr> keys(cap, 0);
    std::vector<std::uint32_t> later(cap, kNoNextUse);
    for (std::size_t i = n; i-- > 0;) {
        const Addr block = trace[i].blockAddr();
        std::size_t slot = mixAddr(block) & mask;
        for (;;) {
            if (later[slot] == kNoNextUse) {
                keys[slot] = block;
                later[slot] = static_cast<std::uint32_t>(i);
                break;
            }
            if (keys[slot] == block) {
                chain[i] = later[slot];
                later[slot] = static_cast<std::uint32_t>(i);
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    return chain;
}

NextUseIndex::LabelPlane::LabelPlane(SeqNo window, SeqNo near_window,
                                     std::vector<std::uint8_t>
                                         owned_codes)
    : window(window), nearWindow(near_window),
      owned_(std::move(owned_codes))
{
    codes = CodeSpan(owned_.data(), owned_.size());
}

NextUseIndex::LabelPlane::LabelPlane(SeqNo window, SeqNo near_window,
                                     const std::uint8_t *codes_data,
                                     std::size_t count)
    : window(window), nearWindow(near_window),
      codes(codes_data, count)
{
}

NextUseIndex::LabelPlane::LabelPlane(const LabelPlane &other)
    : window(other.window), nearWindow(other.nearWindow),
      owned_(other.owned_)
{
    // A copy of an owning plane must view its own copy of the codes; a
    // borrowing plane's view is external and copies verbatim.
    codes = other.codes.data() == other.owned_.data()
                ? CodeSpan(owned_.data(), owned_.size())
                : other.codes;
}

NextUseIndex::LabelPlane &
NextUseIndex::LabelPlane::operator=(const LabelPlane &other)
{
    if (this == &other)
        return *this;
    window = other.window;
    nearWindow = other.nearWindow;
    owned_ = other.owned_;
    codes = other.codes.data() == other.owned_.data()
                ? CodeSpan(owned_.data(), owned_.size())
                : other.codes;
    return *this;
}

void
NextUseIndex::checkIndexable(std::size_t trace_size)
{
    if (trace_size >= kNone)
        casim_fatal("trace with ", trace_size,
                    " references overflows the 32-bit next-use index "
                    "(limit ",
                    kNone - 1,
                    "; positions would collide with the no-next-use "
                    "sentinel) — capture at a smaller scale");
}

NextUseIndex::NextUseIndex(const Trace &trace, const IndexFanout &fanout)
{
    // The chain is one serial backward pass; `fanout` still
    // parallelizes the lazily built slices and plane sweeps.
    (void)fanout;
    checkIndexable(trace.size());
    refs_ = trace.data();
    pager_ = trace.pagerShared();
    chainOwned_ = computeNextUseChain(trace);
    chain_ = chainOwned_.data();
    chainSize_ = chainOwned_.size();
}

NextUseIndex::NextUseIndex(const Trace &trace,
                           std::vector<std::uint32_t> chain,
                           std::vector<LabelPlane> planes)
{
    checkIndexable(trace.size());
    casim_assert(chain.size() == trace.size(),
                 "adopted next-use chain length does not match trace");
    refs_ = trace.data();
    pager_ = trace.pagerShared();
    chainOwned_ = std::move(chain);
    chain_ = chainOwned_.data();
    chainSize_ = chainOwned_.size();
    adoptPlanes(std::move(planes));
}

NextUseIndex::NextUseIndex(const Trace &trace,
                           const std::uint32_t *chain,
                           std::size_t chain_size,
                           std::vector<LabelPlane> planes,
                           std::shared_ptr<const void> keep_alive)
{
    checkIndexable(trace.size());
    casim_assert(chain_size == trace.size(),
                 "adopted next-use chain length does not match trace");
    casim_assert(chain != nullptr || chain_size == 0,
                 "adopted next-use chain needs a buffer");
    refs_ = trace.data();
    pager_ = trace.pagerShared();
    chain_ = chain;
    chainSize_ = chain_size;
    keepAlive_ = std::move(keep_alive);
    adoptPlanes(std::move(planes));
}

NextUseIndex::~NextUseIndex()
{
    // `label_plane.bytes` reports memory held: release this index's
    // share, however its planes arrived.
    std::uint64_t held = 0;
    for (const auto &[key, plane] : planes_)
        held += plane.codes.size();
    planeStats().bytes -= held;
}

void
NextUseIndex::adoptPlanes(std::vector<LabelPlane> planes)
{
    std::uint64_t adopted_bytes = 0;
    for (LabelPlane &plane : planes) {
        casim_assert(plane.codes.size() == chainSize_,
                     "adopted label plane length does not match trace");
        adopted_bytes += plane.codes.size();
        const auto key = std::make_pair(plane.window, plane.nearWindow);
        planes_.emplace(key, std::move(plane));
    }
    if (!planes_.empty()) {
        planeStats().adopted += planes_.size();
        planeStats().bytes += adopted_bytes;
    }
}

void
NextUseIndex::ensureSlices(const IndexFanout &fanout) const
{
    std::call_once(slicesOnce_, [this, &fanout] {
        buildSlices(fanout);
        slicesReady_.store(true, std::memory_order_release);
    });
}

void
NextUseIndex::buildSlices(const IndexFanout &fanout) const
{
    (void)fanout;
    const std::size_t n = chainSize_;

    // Dense block ids via open addressing at <= 50% load.  Ids are
    // assigned in first-appearance order, so the whole build is
    // deterministic regardless of the address distribution.
    std::size_t cap = 16;
    while (cap < 2 * n)
        cap <<= 1;
    s_.table.assign(cap, 0);
    s_.tableMask = cap - 1;
    s_.blockAddr.reserve(n / 8 + 16);

    std::vector<std::uint32_t> id_of(n);
    std::vector<std::uint32_t> counts;
    counts.reserve(n / 8 + 16);
    PageCursor id_cursor(pager_.get(), /*retire=*/false);
    for (std::size_t i = 0; i < n; ++i) {
        id_cursor.touch(i);
        const Addr block = refs_[i].blockAddr();
        std::size_t slot = mixAddr(block) & s_.tableMask;
        std::uint32_t id;
        for (;;) {
            const std::uint32_t entry = s_.table[slot];
            if (entry == 0) {
                id = static_cast<std::uint32_t>(s_.blockAddr.size());
                s_.blockAddr.push_back(block);
                counts.push_back(0);
                s_.table[slot] = id + 1;
                break;
            }
            if (s_.blockAddr[entry - 1] == block) {
                id = entry - 1;
                break;
            }
            slot = (slot + 1) & s_.tableMask;
        }
        id_of[i] = id;
        ++counts[id];
    }

    // Prefix sums carve per-block slices; the scatter pass visits the
    // trace in order, so each slice comes out position-sorted for free.
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(s_.blockAddr.size());
    s_.sliceBegin.resize(blocks + 1);
    std::uint32_t run = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        s_.sliceBegin[b] = run;
        run += counts[b];
        counts[b] = s_.sliceBegin[b];
    }
    s_.sliceBegin[blocks] = run;

    s_.pos.resize(n);
    s_.core.resize(n);
    PageCursor scatter_cursor(pager_.get(), /*retire=*/false);
    for (std::size_t i = 0; i < n; ++i) {
        scatter_cursor.touch(i);
        const std::uint32_t at = counts[id_of[i]]++;
        s_.pos[at] = static_cast<std::uint32_t>(i);
        s_.core[at] = refs_[i].core;
    }

#ifdef CASIM_PARANOID
    // The chain — whether freshly built by the backward pass or adopted
    // from a checksummed bundle — must agree with consecutive slice
    // entries; paranoid builds cross-check every position.
    for (std::uint32_t b = 0; b < blocks; ++b) {
        for (std::uint32_t k = s_.sliceBegin[b];
             k < s_.sliceBegin[b + 1]; ++k) {
            const std::uint32_t expect =
                k + 1 < s_.sliceBegin[b + 1] ? s_.pos[k + 1] : kNone;
            casim_assert(chain_[s_.pos[k]] == expect,
                         "next-use chain inconsistent with slices");
        }
    }
#endif
}

NextUseIndex::Span
NextUseIndex::spanFor(Addr block) const
{
    ensureSlices();
    if (s_.pos.empty())
        return {};
    std::size_t slot = mixAddr(block) & s_.tableMask;
    for (;;) {
        const std::uint32_t entry = s_.table[slot];
        if (entry == 0)
            return {};
        if (s_.blockAddr[entry - 1] == block) {
            const std::uint32_t begin = s_.sliceBegin[entry - 1];
            const std::uint32_t end = s_.sliceBegin[entry];
            return {s_.pos.data() + begin, s_.core.data() + begin,
                    end - begin};
        }
        slot = (slot + 1) & s_.tableMask;
    }
}

void
NextUseIndex::forEachBlockShard(
    const IndexFanout &fanout,
    const std::function<void(std::uint32_t, std::uint32_t)> &shard) const
{
    const std::uint64_t blocks = blockCount();
    if (!fanout || blocks < 2) {
        shard(0, static_cast<std::uint32_t>(blocks));
        return;
    }
    const std::uint64_t shards = std::min<std::uint64_t>(blocks, 256);
    fanout(static_cast<std::size_t>(shards), [&](std::size_t index) {
        const auto lo = static_cast<std::uint32_t>(
            blocks * index / shards);
        const auto hi = static_cast<std::uint32_t>(
            blocks * (index + 1) / shards);
        shard(lo, hi);
    });
}

unsigned
NextUseIndex::distinctCoresFrom(Addr block, SeqNo from, SeqNo window,
                                unsigned cap) const
{
    const Span refs = spanFor(block);
    if (refs.count == 0)
        return 0;

    const SeqNo limit =
        (from > kSeqNever - window) ? kSeqNever : from + window;
    const std::uint32_t *it = std::lower_bound(
        refs.pos, refs.pos + refs.count,
        static_cast<std::uint32_t>(from));
    std::uint64_t mask = 0;
    unsigned count = 0;
    for (; it != refs.pos + refs.count && *it < limit; ++it) {
        const std::uint64_t bit = 1ULL << refs.core[it - refs.pos];
        if ((mask & bit) == 0) {
            mask |= bit;
            if (++count >= cap)
                return count;
        }
    }
    return count;
}

std::uint64_t
NextUseIndex::coreMaskWithin(Addr block, SeqNo from, SeqNo window) const
{
    const Span refs = spanFor(block);
    if (refs.count == 0)
        return 0;
    const SeqNo limit =
        (from > kSeqNever - window) ? kSeqNever : from + window;
    const std::uint32_t *it = std::lower_bound(
        refs.pos, refs.pos + refs.count,
        static_cast<std::uint32_t>(from));
    std::uint64_t mask = 0;
    for (; it != refs.pos + refs.count && *it < limit; ++it)
        mask |= 1ULL << refs.core[it - refs.pos];
    return mask;
}

bool
NextUseIndex::residencyStaysShared(Addr block, SeqNo from, SeqNo window,
                                   std::uint64_t prior_mask,
                                   bool *has_future) const
{
    const Span refs = spanFor(block);
    const SeqNo limit =
        (from > kSeqNever - window) ? kSeqNever : from + window;
    const std::uint32_t *it =
        refs.count == 0
            ? nullptr
            : std::lower_bound(refs.pos, refs.pos + refs.count,
                               static_cast<std::uint32_t>(from));
    bool any = false;
    std::uint64_t mask = prior_mask;
    const bool prior_shared = popCount(prior_mask) >= 2;
    for (; it != nullptr && it != refs.pos + refs.count && *it < limit;
         ++it) {
        any = true;
        if (prior_shared)
            break;
        mask |= 1ULL << refs.core[it - refs.pos];
        if (popCount(mask) >= 2)
            break;
    }
    if (has_future != nullptr)
        *has_future = any;
    return any && popCount(mask) >= 2;
}

SeqNo
NextUseIndex::nextUseByOther(Addr block, SeqNo from, CoreId by) const
{
    const Span refs = spanFor(block);
    if (refs.count == 0)
        return kSeqNever;

    const std::uint32_t *it = std::lower_bound(
        refs.pos, refs.pos + refs.count,
        static_cast<std::uint32_t>(from));
    for (; it != refs.pos + refs.count; ++it) {
        if (refs.core[it - refs.pos] != by)
            return *it;
    }
    return kSeqNever;
}

std::size_t
NextUseIndex::referenceCount(Addr block) const
{
    return spanFor(block).count;
}

void
NextUseIndex::prefetchBlock(Addr block) const
{
    // Deliberately does NOT ensureSlices(): a prefetch must never
    // trigger the build.  Callers only benefit after a first real
    // query has populated the table, which is the steady state; the
    // acquire load keeps the unsynchronized peek race-free.
    if (!slicesReady_.load(std::memory_order_acquire) ||
        s_.table.empty())
        return;
    __builtin_prefetch(&s_.table[mixAddr(block) & s_.tableMask]);
}

std::uint8_t
NextUseIndex::scanLabel(Addr block, SeqNo from, SeqNo window,
                        SeqNo near_window) const
{
    if (!sharedWithin(block, from, window))
        return kLabelPrivate;
    const SeqNo next = from < chainSize_ ? nextUse(from) : kSeqNever;
    if (next == kSeqNever || next - from > near_window)
        return kLabelNearVeto;
    return kLabelShared;
}

NextUseIndex::LabelPlane
NextUseIndex::computeLabelPlane(SeqNo window, SeqNo near_window,
                                const IndexFanout &fanout) const
{
    ensureSlices(fanout);
    std::vector<std::uint8_t> codes(chainSize_, kLabelPrivate);
    std::uint8_t *out = codes.data();

    // Per block: slide the window [pos[k], pos[k] + window) over the
    // sorted slice with two pointers.  `left`/`right` bound the slice
    // entries currently counted, so each entry enters and leaves the
    // per-core counts exactly once — O(refs) per block, O(n) total,
    // independent of the window size.  Shards write disjoint code
    // ranges (each position belongs to exactly one block's slice).
    forEachBlockShard(fanout, [&](std::uint32_t lo, std::uint32_t hi) {
        std::array<std::uint32_t, kMaxCores> core_refs{};
        for (std::uint32_t b = lo; b < hi; ++b) {
            const std::uint32_t begin = s_.sliceBegin[b];
            const std::uint32_t end = s_.sliceBegin[b + 1];
            const std::uint32_t m = end - begin;
            const std::uint32_t *pos = s_.pos.data() + begin;
            const CoreId *core = s_.core.data() + begin;
            unsigned distinct = 0;
            std::uint32_t left = 0, right = 0;
            for (std::uint32_t k = 0; k < m; ++k) {
                while (left < k) {
                    if (left < right &&
                        --core_refs[core[left]] == 0)
                        --distinct;
                    ++left;
                }
                if (right < left)
                    right = left;
                const SeqNo from = pos[k];
                const SeqNo limit = (from > kSeqNever - window)
                                        ? kSeqNever
                                        : from + window;
                while (right < m && pos[right] < limit) {
                    if (core_refs[core[right]]++ == 0)
                        ++distinct;
                    ++right;
                }
                if (distinct >= 2) {
                    const bool veto =
                        k + 1 >= m ||
                        SeqNo{pos[k + 1]} - from > near_window;
                    out[from] = veto ? kLabelNearVeto : kLabelShared;
                }
            }
            // Drain the still-counted tail so the count array can be
            // reused for the shard's next block.
            for (std::uint32_t k = left; k < right; ++k)
                --core_refs[core[k]];
        }
    });
    return LabelPlane(window, near_window, std::move(codes));
}

const NextUseIndex::LabelPlane &
NextUseIndex::labelPlane(SeqNo window, SeqNo near_window,
                         const IndexFanout &fanout) const
{
    const auto key = std::make_pair(window, near_window);
    {
        std::lock_guard<std::mutex> lock(planeMutex_);
        const auto it = planes_.find(key);
        if (it != planes_.end()) {
            ++planeStats().memoHits;
            return it->second;
        }
    }

    // Sweep outside the memo lock so independent indexes never
    // serialize on each other's builds; if two threads race on the
    // same (window, near) pair, the first insert wins and the loser's
    // sweep is discarded (identical content either way).
    LabelPlane plane = computeLabelPlane(window, near_window, fanout);
    std::lock_guard<std::mutex> lock(planeMutex_);
    const auto [it, inserted] = planes_.emplace(key, std::move(plane));
    if (inserted) {
        ++planeStats().builds;
        planeStats().bytes += it->second.codes.size();
    } else {
        ++planeStats().memoHits;
    }
    return it->second;
}

} // namespace casim
