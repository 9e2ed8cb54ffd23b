/**
 * @file
 * Implementation of the persistent capture cache.
 */

#include "sim/capture_cache.hh"

#include <cstring>
#include <filesystem>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "trace/mmap_file.hh"
#include "trace/next_use.hh"
#include "trace/trace_io.hh"

namespace casim {

namespace {

/**
 * A stale bundle is a well-formed file written by an incompatible
 * configuration or format; everything else the bundle readers report
 * (bad magic, truncation, checksum mismatch, ...) is corruption.
 */
bool
isStaleBundleError(const std::string &why)
{
    return why == "config hash mismatch" ||
           why == "unsupported bundle version";
}

/**
 * Version of the metadata packing below and of the aux-section
 * labeling semantics (the >= 2-distinct-cores sharing threshold and
 * the near-window veto the persisted label planes encode).  Folded
 * into the config hash so a change invalidates every existing cache
 * file instead of misinterpreting it.  Version 2: bundles embed the
 * next-use chain + label planes.  Deliberately NOT bumped for a new
 * bundle format revision — the semantics are unchanged, so the hash
 * stays stable; the bundle's own version word marks an older file
 * stale, and the next save rewrites it in place.
 */
constexpr std::uint64_t kCaptureMetaVersion = 2;

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Flatten every statistic of a capture into metadata words. */
std::vector<std::uint64_t>
packMeta(const CapturedWorkload &captured)
{
    const HierarchyRunResult &h = captured.hierarchy;
    const SharingSummary &s = h.sharing;
    std::vector<std::uint64_t> meta;
    meta.reserve(26 + s.sharerHits.size());
    meta.push_back(captured.demandAccesses);
    meta.push_back(captured.footprintBlocks);
    meta.push_back(h.demandAccesses);
    meta.push_back(h.llcAccesses);
    meta.push_back(h.llcHits);
    meta.push_back(h.llcMisses);
    meta.push_back(doubleBits(h.llcMpkr));
    meta.push_back(h.upgrades);
    meta.push_back(h.interventions);
    meta.push_back(h.backInvalidations);
    meta.push_back(h.memReads);
    meta.push_back(h.memWritebacks);
    meta.push_back(h.cycles);
    meta.push_back(doubleBits(s.sharedHitFraction));
    meta.push_back(s.sharedHits);
    meta.push_back(s.privateHits);
    for (int i = 0; i < 4; ++i)
        meta.push_back(s.classHits[i]);
    for (int i = 0; i < 4; ++i)
        meta.push_back(s.classResidencies[i]);
    meta.push_back(s.deadResidencies);
    meta.push_back(s.sharerHits.size());
    for (const std::uint64_t hits : s.sharerHits)
        meta.push_back(hits);
    return meta;
}

/** Inverse of packMeta; false if the word count is inconsistent. */
bool
unpackMeta(const std::vector<std::uint64_t> &meta,
           CapturedWorkload &captured)
{
    constexpr std::size_t kFixedWords = 26;
    if (meta.size() < kFixedWords)
        return false;
    std::size_t at = 0;
    const auto next = [&] { return meta[at++]; };

    captured.demandAccesses = next();
    captured.footprintBlocks = next();
    HierarchyRunResult &h = captured.hierarchy;
    h.demandAccesses = next();
    h.llcAccesses = next();
    h.llcHits = next();
    h.llcMisses = next();
    h.llcMpkr = bitsDouble(next());
    h.upgrades = next();
    h.interventions = next();
    h.backInvalidations = next();
    h.memReads = next();
    h.memWritebacks = next();
    h.cycles = next();
    SharingSummary &s = h.sharing;
    s.sharedHitFraction = bitsDouble(next());
    s.sharedHits = next();
    s.privateHits = next();
    for (int i = 0; i < 4; ++i)
        s.classHits[i] = next();
    for (int i = 0; i < 4; ++i)
        s.classResidencies[i] = next();
    s.deadResidencies = next();
    const std::uint64_t sharer_count = next();
    if (meta.size() != kFixedWords + sharer_count)
        return false;
    s.sharerHits.assign(meta.begin() +
                            static_cast<std::ptrdiff_t>(at),
                        meta.end());
    return true;
}

/**
 * Accounted footprint of a resident capture: stream records plus the
 * adopted next-use chain and label-plane codes.  Counted whether the
 * storage is owned or file-backed — mapped pages cost RSS while
 * touched, and the budget is what bounds the daemon either way.
 */
std::uint64_t
residentFootprintBytes(const CapturedWorkload &captured)
{
    std::uint64_t bytes =
        captured.stream.size() * sizeof(MemAccess);
    if (captured.nextUseAux != nullptr) {
        const CaptureAuxView &aux = *captured.nextUseAux;
        if (aux.nextUse != nullptr)
            bytes += aux.count * sizeof(std::uint32_t);
        bytes += aux.planes.size() * aux.count;
    }
    return bytes;
}

} // namespace

CaptureCache::CaptureCache()
    : group_("capture_cache"),
      hits_(group_.addAtomicCounter(
          "hits", "captures loaded from a cached bundle")),
      coldMisses_(group_.addAtomicCounter(
          "cold_misses", "lookups that found no cache file")),
      staleMisses_(group_.addAtomicCounter(
          "stale_misses",
          "bundles rejected for a stale config hash or format version")),
      corruptMisses_(group_.addAtomicCounter(
          "corrupt_misses",
          "bundles rejected as truncated, checksum-bad or inconsistent")),
      saves_(group_.addAtomicCounter("saves",
                                     "bundles written to the cache")),
      saveFailures_(group_.addAtomicCounter(
          "save_failures", "bundle writes that failed (best-effort)")),
      memoHits_(group_.addAtomicCounter(
          "memo_hits",
          "captures served from the in-memory resident store")),
      mmapMaps_(group_.addAtomicCounter(
          "mmap_maps", "bundles loaded zero-copy via mmap")),
      bytesMapped_(group_.addAtomicCounter(
          "bytes_mapped", "bundle file bytes mapped (not read) on load")),
      deserialized_(group_.addAtomicCounter(
          "deserialized",
          "bundle loads read into memory rather than mapped "
          "(CASIM_NO_MMAP)")),
      residentGroup_("resident_store"),
      evictions_(residentGroup_.addAtomicCounter(
          "evictions", "resident captures dropped by the byte budget")),
      evictedBytes_(residentGroup_.addAtomicCounter(
          "evicted_bytes", "accounted bytes of evicted captures"))
{
    group_.addFormula("major_faults",
                      "major page faults of the process so far "
                      "(getrusage; page-fault-dominated warm starts "
                      "show up here, not in deserialized)",
                      [] {
                          struct rusage usage
                          {
                          };
                          getrusage(RUSAGE_SELF, &usage);
                          return static_cast<double>(usage.ru_majflt);
                      });
    residentGroup_.addFormula(
        "entries", "captures currently resident", [this] {
            return static_cast<double>(residentEntries_.load());
        });
    residentGroup_.addFormula(
        "bytes", "accounted bytes currently resident", [this] {
            return static_cast<double>(residentBytes_.load());
        });
    residentGroup_.addFormula(
        "budget_bytes", "configured byte budget (0 = unbounded)",
        [this] {
            return static_cast<double>(budgetBytes_.load());
        });
}

std::uint64_t
CaptureCache::counter(const std::string &name) const
{
    const auto *stat = group_.find("capture_cache." + name);
    const auto value = stats::counterValue(stat);
    casim_assert(value.has_value(), "unknown capture-cache counter '",
                 name, "'");
    return *value;
}

std::uint64_t
CaptureCache::residentCounter(const std::string &name) const
{
    const auto *stat = residentGroup_.find("resident_store." + name);
    if (const auto value = stats::counterValue(stat))
        return *value;
    const auto *formula = dynamic_cast<const stats::Formula *>(stat);
    casim_assert(formula != nullptr,
                 "unknown resident-store statistic '", name, "'");
    return static_cast<std::uint64_t>(formula->value());
}

void
CaptureCache::setResidentBudget(std::uint64_t bytes)
{
    budgetBytes_.store(bytes);
    std::lock_guard<std::mutex> lock(mutex_);
    enforceBudgetLocked(/*protect_hash=*/0);
}

std::shared_ptr<const CapturedWorkload>
CaptureCache::capture(const std::string &name, const StudyConfig &config,
                      bool *captured_now)
{
    const std::uint64_t hash = captureConfigHash(
        name, config.workload, captureHierarchyConfig(config));

    std::shared_ptr<ResidentEntry> entry;
    bool memo_hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::shared_ptr<ResidentEntry> &slot = resident_[hash];
        if (slot == nullptr)
            slot = std::make_shared<ResidentEntry>();
        // A slot may exist without a capture (pinResident() pins ahead
        // of the warm): only an adopted capture is a memo hit.
        memo_hit = slot->captured != nullptr;
        slot->lastUse = ++lruTick_;
        entry = slot;
        residentEntries_.store(resident_.size());
    }
    if (memo_hit)
        ++memoHits_;
    bool cold = false;
    std::call_once(entry->once, [&] {
        entry->captured = std::make_shared<const CapturedWorkload>(
            captureWorkload(name, config, *this));
        cold = true;
    });
    if (cold)
        accountAndEnforceBudget(hash);
    if (captured_now != nullptr)
        *captured_now = cold;
    return entry->captured;
}

void
CaptureCache::pinResident(std::uint64_t hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<ResidentEntry> &slot = resident_[hash];
    if (slot == nullptr)
        slot = std::make_shared<ResidentEntry>();
    ++slot->pinned;
    residentEntries_.store(resident_.size());
}

void
CaptureCache::unpinResident(std::uint64_t hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = resident_.find(hash);
    if (it == resident_.end())
        return;
    casim_assert(it->second->pinned > 0,
                 "unpinResident without a matching pin");
    --it->second->pinned;
    // The entry stayed exempt from the budget while pinned; with the
    // last pin gone it competes with the rest of the store again.
    if (it->second->pinned == 0)
        enforceBudgetLocked(/*protect_hash=*/0);
}

void
CaptureCache::accountAndEnforceBudget(std::uint64_t hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = resident_.find(hash);
    // The entry may already have been evicted by a concurrent
    // setResidentBudget(); nothing to account then — the caller's
    // shared_ptr keeps the capture alive for its own use.
    if (it == resident_.end() || it->second->captured == nullptr)
        return;
    ResidentEntry &entry = *it->second;
    if (entry.ready)
        return;
    entry.ready = true;
    entry.bytes = residentFootprintBytes(*entry.captured);
    residentBytes_.fetch_add(entry.bytes);
    enforceBudgetLocked(hash);
}

void
CaptureCache::enforceBudgetLocked(std::uint64_t protect_hash)
{
    const std::uint64_t budget = budgetBytes_.load();
    if (budget == 0)
        return;
    while (residentBytes_.load() > budget) {
        // Evict the least-recently-used completed entry; the one just
        // inserted is protected so a single oversized capture still
        // serves its requester before being dropped on the next round,
        // and pinned entries (leased by in-flight batches) are exempt.
        auto victim = resident_.end();
        for (auto it = resident_.begin(); it != resident_.end(); ++it) {
            if (!it->second->ready || it->second->pinned > 0 ||
                it->first == protect_hash)
                continue;
            if (victim == resident_.end() ||
                it->second->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == resident_.end())
            break;
        const std::uint64_t freed = victim->second->bytes;
        residentBytes_.fetch_sub(freed);
        resident_.erase(victim);
        residentEntries_.store(resident_.size());
        ++evictions_;
        evictedBytes_ += freed;
    }
}

bool
CaptureCache::load(const std::string &path, std::uint64_t config_hash,
                   CapturedWorkload &out, std::string *why)
{
    // CASIM_NO_MMAP reads the bundle into memory instead of mapping it:
    // the same decoder, plus the full data check.
    const bool read_in = mmapDisabled();
    MappedCaptureBundle bundle;
    std::string error;
    bool ok = read_in
                  ? readInCaptureBundle(path, config_hash, bundle, &error)
                  : mapCaptureBundle(path, config_hash, bundle, &error);
    if (!ok && error == "cannot open") {
        // The normal cold path: nothing cached yet.
        ++coldMisses_;
        if (why != nullptr)
            *why = error;
        return false;
    }
    CapturedWorkload loaded;
    if (ok && !unpackMeta(bundle.meta, loaded)) {
        ok = false;
        error = "inconsistent bundle meta";
    }
    if (!ok) {
        ++(isStaleBundleError(error) ? staleMisses_ : corruptMisses_);
        if (why != nullptr)
            *why = error;
        return false;
    }

    loaded.stream = std::move(bundle.stream);
    if (bundle.aux->nextUse != nullptr || !bundle.aux->planes.empty())
        loaded.nextUseAux = bundle.aux;
    out = std::move(loaded);
    ++hits_;
    if (read_in) {
        ++deserialized_;
    } else {
        ++mmapMaps_;
        bytesMapped_ += bundle.bytesMapped;
        noteLabelPlaneMappedBytes(bundle.aux->planes.size() *
                                  bundle.aux->count);
    }
    if (why != nullptr)
        why->clear();
    return true;
}

bool
CaptureCache::save(const std::string &path, std::uint64_t config_hash,
                   const CapturedWorkload &captured,
                   const CaptureAux *aux)
{
    const bool ok = writeFileDurably(path, [&](std::ostream &os) {
        return writeCaptureBundle(os, config_hash, packMeta(captured),
                                  captured.stream, aux);
    });
    ++(ok ? saves_ : saveFailures_);
    return ok;
}

std::uint64_t
captureConfigHash(const std::string &workload,
                  const WorkloadParams &params,
                  const HierarchyConfig &hierarchy)
{
    Fnv1a64 hasher;
    hasher.update(kCaptureMetaVersion);
    hasher.update(std::string_view(workload));

    hasher.update(std::uint64_t{params.threads});
    hasher.update(params.scale);
    hasher.update(params.seed);

    hasher.update(std::uint64_t{hierarchy.numCores});
    hasher.update(hierarchy.l1.sizeBytes);
    hasher.update(std::uint64_t{hierarchy.l1.ways});
    hasher.update(std::uint64_t{hierarchy.l1.blockBytes});
    hasher.update(hierarchy.llc.sizeBytes);
    hasher.update(std::uint64_t{hierarchy.llc.ways});
    hasher.update(std::uint64_t{hierarchy.llc.blockBytes});
    hasher.update(hierarchy.l1Latency);
    hasher.update(hierarchy.llcLatency);
    hasher.update(hierarchy.memLatency);
    hasher.update(std::uint64_t{hierarchy.useDramModel ? 1u : 0u});
    hasher.update(std::uint64_t{hierarchy.dram.banks});
    hasher.update(std::uint64_t{hierarchy.dram.rowBytes});
    hasher.update(hierarchy.dram.rowHitLatency);
    hasher.update(hierarchy.dram.rowMissLatency);
    return hasher.digest();
}

std::string
captureCachePath(const std::string &dir, const std::string &workload,
                 std::uint64_t config_hash)
{
    std::ostringstream name;
    name << workload << '-' << std::hex << config_hash << ".ccap";
    return (std::filesystem::path(dir) / name.str()).string();
}

} // namespace casim
