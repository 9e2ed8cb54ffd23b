/**
 * @file
 * Implementation of the offline per-block reference index and the
 * label-plane sweeps.
 */

#include "trace/next_use.hh"

#include <algorithm>
#include <array>
#include <utility>

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
    stats::AtomicCounter &sliceBuilds = group.addAtomicCounter(
        "slice_builds",
        "per-block slices retained for block-keyed queries");
    stats::AtomicCounter &sliceBytes = group.addAtomicCounter(
        "slice_bytes", "bytes held by retained per-block slices");
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

/**
 * Run `shard(lo, hi)` over block ranges covering [0, blocks): inline
 * without a fanout, else as up to 256 fanned-out tasks.
 */
void
forEachBlockShard(
    std::uint32_t blocks, const IndexFanout &fanout,
    const std::function<void(std::uint32_t, std::uint32_t)> &shard)
{
    if (!fanout || blocks < 2) {
        shard(0, blocks);
        return;
    }
    const std::uint64_t shards = std::min<std::uint64_t>(blocks, 256);
    fanout(static_cast<std::size_t>(shards), [&](std::size_t index) {
        const auto lo = static_cast<std::uint32_t>(
            std::uint64_t{blocks} * index / shards);
        const auto hi = static_cast<std::uint32_t>(
            std::uint64_t{blocks} * (index + 1) / shards);
        shard(lo, hi);
    });
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
    // address 0 needs no special casing.  Traces hold far fewer blocks
    // than references, so the table starts near n/4 slots and doubles
    // whenever it passes half load.
    std::size_t cap = 16;
    while (cap < n / 4)
        cap <<= 1;
    std::size_t mask = cap - 1;
    std::size_t used = 0;
    std::vector<Addr> keys(cap, 0);
    std::vector<std::uint32_t> later(cap, kNoNextUse);
    const auto slotOf = [&](Addr block) {
        std::size_t slot = mixAddr(block) & mask;
        while (later[slot] != kNoNextUse && keys[slot] != block)
            slot = (slot + 1) & mask;
        return slot;
    };
    for (std::size_t i = n; i-- > 0;) {
        const Addr block = trace[i].blockAddr();
        std::size_t slot = slotOf(block);
        if (later[slot] != kNoNextUse) {
            chain[i] = later[slot];
            later[slot] = static_cast<std::uint32_t>(i);
            continue;
        }
        if (2 * (used + 1) > cap) {
            const std::vector<Addr> old_keys =
                std::exchange(keys, std::vector<Addr>(2 * cap, 0));
            const std::vector<std::uint32_t> old_later = std::exchange(
                later, std::vector<std::uint32_t>(2 * cap, kNoNextUse));
            cap *= 2;
            mask = cap - 1;
            for (std::size_t k = 0; k < old_later.size(); ++k) {
                if (old_later[k] == kNoNextUse)
                    continue;
                const std::size_t to = slotOf(old_keys[k]);
                keys[to] = old_keys[k];
                later[to] = old_later[k];
            }
            slot = slotOf(block);
        }
        keys[slot] = block;
        later[slot] = static_cast<std::uint32_t>(i);
        ++used;
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
    // The byte gauges report memory held: release this index's share,
    // however its planes arrived.
    std::uint64_t held = 0;
    for (const auto &[key, plane] : planes_)
        held += plane.codes.size();
    planeStats().bytes -= held;
    if (slicesReady_.load(std::memory_order_acquire))
        planeStats().sliceBytes -= sliceBytes();
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

NextUseIndex::Grouping
NextUseIndex::groupByChain() const
{
    const std::size_t n = chainSize_;
    Grouping g;

    // Dense block ids carried forward along the chain: a position no
    // earlier reference points to opens a new id, in first-appearance
    // order.  sliceBegin[id + 1] counts the id's references for now.
    // The writes are independent of each other, so the pass streams
    // instead of chasing the chain one dependent load at a time.
    std::vector<std::uint32_t> id(n, kNone);
    g.sliceBegin.assign(1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t b = id[i];
        if (b == kNone) {
            b = static_cast<std::uint32_t>(g.sliceBegin.size() - 1);
            g.sliceBegin.push_back(0);
            id[i] = b;
        }
        ++g.sliceBegin[b + 1];
        // kNone is >= n (checkIndexable), so one compare also keeps a
        // damaged chain from writing out of bounds.
        const std::uint32_t next = chain_[i];
        if (next < n)
            id[next] = b;
    }

    // Exclusive prefix sums, shifted one slot right: sliceBegin[b + 1]
    // becomes block b's first entry and serves as its scatter cursor,
    // which ends at block b + 1's first entry.  The scatter visits the
    // trace in order, so each slice comes out position-sorted for free.
    const std::uint32_t blocks = g.blockCount();
    std::uint32_t run = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        const std::uint32_t count = g.sliceBegin[b + 1];
        g.sliceBegin[b + 1] = run;
        run += count;
    }
    g.pos.resize(n);
    g.core.resize(n);
    PageCursor cursor(pager_.get(), /*retire=*/false);
    // A block's next entry rarely shares a host line with its previous
    // one, so the scatter is bound by line fills; prefetching the
    // entries a few positions ahead overlaps them.
    constexpr std::size_t kAhead = 16;
    for (std::size_t i = 0; i < n; ++i) {
        cursor.touch(i);
        if (i + kAhead < n) {
            const std::uint32_t ahead = g.sliceBegin[id[i + kAhead] + 1];
            __builtin_prefetch(g.pos.data() + ahead, 1);
            __builtin_prefetch(g.core.data() + ahead, 1);
        }
        const std::uint32_t at = g.sliceBegin[id[i] + 1]++;
        g.pos[at] = static_cast<std::uint32_t>(i);
        g.core[at] = refs_[i].core;
    }

#ifdef CASIM_PARANOID
    // Checked against the trace itself, not the chain the grouping came
    // from: every slice holds one block, no two slices hold the same
    // block, and positions rise within a slice.  Only then does the
    // chain's agreement with consecutive slice entries (a freshly built
    // chain or one adopted from a checksummed bundle) mean anything.
    std::vector<Addr> firsts(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
        const std::uint32_t begin = g.sliceBegin[b];
        const std::uint32_t end = g.sliceBegin[b + 1];
        casim_assert(begin < end, "empty per-block slice");
        firsts[b] = refs_[g.pos[begin]].blockAddr();
        for (std::uint32_t k = begin; k < end; ++k) {
            casim_assert(refs_[g.pos[k]].blockAddr() == firsts[b],
                         "per-block slice mixes blocks");
            casim_assert(k == begin || g.pos[k - 1] < g.pos[k],
                         "positions do not rise within a slice");
            const std::uint32_t expect =
                k + 1 < end ? g.pos[k + 1] : kNone;
            casim_assert(chain_[g.pos[k]] == expect,
                         "next-use chain inconsistent with slices");
        }
    }
    std::sort(firsts.begin(), firsts.end());
    casim_assert(std::adjacent_find(firsts.begin(), firsts.end()) ==
                     firsts.end(),
                 "two per-block slices hold the same block");
#endif
    return g;
}

void
NextUseIndex::ensureSlices() const
{
    std::call_once(slicesOnce_, [this] {
        slices_ = groupByChain();

        // Block -> id at <= 50% load.  A slice's first position names
        // its block, so the table is filled from the grouping; ids rise
        // with first appearance, so those reads walk the trace forward.
        const std::uint32_t blocks = slices_.blockCount();
        std::size_t cap = 16;
        while (cap < 2 * static_cast<std::size_t>(blocks))
            cap <<= 1;
        table_.assign(cap, BlockSlot{
                               static_cast<std::uint32_t>(kBlockNumberLimit),
                               0});
        tableMask_ = cap - 1;
        for (std::uint32_t b = 0; b < blocks; ++b) {
            const std::uint32_t number =
                refs_[slices_.pos[slices_.sliceBegin[b]]].block;
            std::size_t slot = mixAddr(number) & tableMask_;
            while (table_[slot].number != kBlockNumberLimit)
                slot = (slot + 1) & tableMask_;
            table_[slot] = {number, b};
        }

        ++planeStats().sliceBuilds;
        planeStats().sliceBytes += sliceBytes();
        slicesReady_.store(true, std::memory_order_release);
    });
}

std::uint64_t
NextUseIndex::sliceBytes() const
{
    return slices_.sliceBegin.size() * sizeof(std::uint32_t) +
           slices_.pos.size() * sizeof(std::uint32_t) +
           slices_.core.size() * sizeof(CoreId) +
           table_.size() * sizeof(BlockSlot);
}

NextUseIndex::Span
NextUseIndex::spanFor(Addr block) const
{
    ensureSlices();
    // Block numbers past the 32-bit rule name no traced block.
    if (blockNumber(block) >= kBlockNumberLimit)
        return {};
    const auto number = static_cast<std::uint32_t>(blockNumber(block));
    std::size_t slot = mixAddr(number) & tableMask_;
    for (;;) {
        const BlockSlot entry = table_[slot];
        if (entry.number == number) {
            const std::uint32_t begin = slices_.sliceBegin[entry.id];
            const std::uint32_t end = slices_.sliceBegin[entry.id + 1];
            return {slices_.pos.data() + begin,
                    slices_.core.data() + begin, end - begin};
        }
        if (entry.number == kBlockNumberLimit)
            return {};
        slot = (slot + 1) & tableMask_;
    }
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
    if (!slicesReady_.load(std::memory_order_acquire))
        return;
    __builtin_prefetch(&table_[mixAddr(blockNumber(block)) & tableMask_]);
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
NextUseIndex::sweepPlane(const Grouping &g, SeqNo window,
                         SeqNo near_window, const IndexFanout &fanout)
{
    std::vector<std::uint8_t> codes(g.pos.size(), kLabelPrivate);
    std::uint8_t *out = codes.data();

    // Per block: slide the window [pos[k], pos[k] + window) over the
    // sorted slice with two pointers.  `left`/`right` bound the slice
    // entries currently counted, so each entry enters and leaves the
    // per-core counts exactly once — O(refs) per block, O(n) total,
    // independent of the window size.  Shards write disjoint code
    // ranges (each position belongs to exactly one block's slice).
    forEachBlockShard(g.blockCount(), fanout,
                      [&](std::uint32_t lo, std::uint32_t hi) {
        std::array<std::uint32_t, kMaxCores> core_refs{};
        for (std::uint32_t b = lo; b < hi; ++b) {
            const std::uint32_t begin = g.sliceBegin[b];
            const std::uint32_t end = g.sliceBegin[b + 1];
            const std::uint32_t m = end - begin;
            const std::uint32_t *pos = g.pos.data() + begin;
            const CoreId *core = g.core.data() + begin;
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

std::vector<NextUseIndex::LabelPlane>
NextUseIndex::computeLabelPlanes(const std::vector<WindowPair> &pairs,
                                 const IndexFanout &fanout) const
{
    std::vector<LabelPlane> planes;
    planes.reserve(pairs.size());
    const auto sweepAll = [&](const Grouping &grouping) {
        for (const auto &[window, near] : pairs)
            planes.push_back(sweepPlane(grouping, window, near, fanout));
    };
    if (slicesReady_.load(std::memory_order_acquire))
        sweepAll(slices_);
    else
        sweepAll(groupByChain()); // transient: freed once swept
    return planes;
}

NextUseIndex::LabelPlane
NextUseIndex::computeLabelPlane(SeqNo window, SeqNo near_window,
                                const IndexFanout &fanout) const
{
    return std::move(
        computeLabelPlanes({{window, near_window}}, fanout).front());
}

const NextUseIndex::LabelPlane &
NextUseIndex::labelPlane(SeqNo window, SeqNo near_window,
                         const IndexFanout &fanout) const
{
    return *labelPlanes({{window, near_window}}, fanout).front();
}

std::vector<const NextUseIndex::LabelPlane *>
NextUseIndex::labelPlanes(const std::vector<WindowPair> &pairs,
                          const IndexFanout &fanout) const
{
    std::vector<const LabelPlane *> found(pairs.size(), nullptr);
    std::vector<WindowPair> missing;
    {
        std::lock_guard<std::mutex> lock(planeMutex_);
        for (std::size_t k = 0; k < pairs.size(); ++k) {
            const auto it = planes_.find(pairs[k]);
            if (it != planes_.end()) {
                found[k] = &it->second;
                ++planeStats().memoHits;
            } else {
                missing.push_back(pairs[k]);
            }
        }
    }
    if (missing.empty())
        return found;

    // Sweep outside the memo lock so independent indexes never
    // serialize on each other's builds; if two threads race on the
    // same (window, near) pair (or a caller repeats one), the first
    // insert wins and the loser's sweep is discarded (identical content
    // either way).
    std::vector<LabelPlane> built = computeLabelPlanes(missing, fanout);
    std::lock_guard<std::mutex> lock(planeMutex_);
    for (std::size_t k = 0; k < missing.size(); ++k) {
        const auto [it, inserted] =
            planes_.emplace(missing[k], std::move(built[k]));
        if (inserted) {
            ++planeStats().builds;
            planeStats().bytes += it->second.codes.size();
        } else {
            ++planeStats().memoHits;
        }
    }
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        if (found[k] == nullptr)
            found[k] = &planes_.at(pairs[k]);
    }
    return found;
}

} // namespace casim
