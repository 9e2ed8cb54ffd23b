/**
 * @file
 * Implementation of the coherent CMP memory hierarchy.
 */

#include "mem/hierarchy.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "mem/repl/lru.hh"

namespace casim {

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     const ReplPolicyFactory &llc_policy)
    : config_(config),
      sharing_(config.numCores),
      stats_("hierarchy"),
      accesses_(stats_.addCounter("accesses",
                                  "demand references simulated")),
      upgrades_(stats_.addCounter("upgrades",
                                  "S->M upgrade transactions at the LLC")),
      interventions_(stats_.addCounter(
          "interventions", "remote M/E copies downgraded for a read")),
      backInvals_(stats_.addCounter(
          "back_invalidations",
          "L1 copies removed to keep the LLC inclusive")),
      invalidationsSent_(stats_.addCounter(
          "invalidations_sent", "L1 copies removed on a remote write")),
      memReads_(stats_.addCounter("mem_reads",
                                  "blocks fetched from memory")),
      memWritebacks_(stats_.addCounter("mem_writebacks",
                                       "dirty blocks written to memory")),
      l1Writebacks_(stats_.addCounter("l1_writebacks",
                                      "dirty L1 blocks written to the LLC"))
{
    casim_assert(config_.numCores >= 1 && config_.numCores <= kMaxCores,
                 "unsupported core count ", config_.numCores);
    // Every cache is a lean tag store: MESI state, the directory and
    // the residency records live in the dense arrays below.
    l1Sets_ = config_.l1.numSets();
    for (unsigned core = 0; core < config_.numCores; ++core) {
        l1s_.push_back(std::make_unique<Cache>(
            "l1_" + std::to_string(core), config_.l1,
            std::make_unique<LruPolicy>(l1Sets_, config_.l1.ways)));
        l1Victim_.emplace_back(
            [this, core](unsigned set, unsigned way) {
                handleL1Victim(static_cast<CoreId>(core), set, way);
            });
    }
    llc_ = std::make_unique<Cache>(
        "llc", config_.llc,
        llc_policy(config_.llc.numSets(), config_.llc.ways));
    llcVictim_ = [this](unsigned set, unsigned way) {
        handleLlcVictim(set, way);
    };
    l1States_.assign(static_cast<std::size_t>(config_.numCores) *
                         l1Sets_ * config_.l1.ways,
                     MesiState::Invalid);
    llcRecords_ = AlignedArray<LlcRecord>(
        static_cast<std::size_t>(config_.llc.numSets()) *
        config_.llc.ways);
    if (config_.useDramModel)
        dram_ = std::make_unique<DramModel>(config_.dram);
}

MesiState
Hierarchy::l1State(unsigned core, Addr block_addr) const
{
    const Cache &l1 = *l1s_.at(core);
    const unsigned set = l1.setIndex(block_addr);
    const unsigned way = l1.findWay(set, block_addr);
    if (way == config_.l1.ways)
        return MesiState::Invalid;
    return l1States_[(static_cast<std::size_t>(core) * l1Sets_ + set) *
                         config_.l1.ways + way];
}

const LlcRecord *
Hierarchy::llcRecord(Addr block_addr) const
{
    const unsigned set = llc_->setIndex(block_addr);
    const unsigned way = llc_->findWay(set, block_addr);
    if (way == config_.llc.ways)
        return nullptr;
    return &llcRecords_[static_cast<std::size_t>(set) * config_.llc.ways +
                        way];
}

void
Hierarchy::access(const MemAccess &access)
{
    const Addr block_addr = access.blockAddr();
    const SeqNo seq = globalSeq_++;
    ++accesses_;
    cycles_ += config_.l1Latency;

    Cache &l1 = *l1s_[access.core];
    ReplContext ctx{block_addr, access.pc, access.core, access.isWrite,
                    seq, false};
    const unsigned way = l1.accessWay(ctx);

    if (way != config_.l1.ways) {
        if (!access.isWrite)
            return;
        const unsigned set = l1.setIndex(block_addr);
        MesiState &state = l1StateAt(access.core, set, way);
        switch (state) {
          case MesiState::Modified:
            return;
          case MesiState::Exclusive:
            // Silent upgrade: exclusivity implies no other copies.
            state = MesiState::Modified;
            l1.setDirtyAt(set, way, true);
            return;
          case MesiState::Shared:
            // Ownership must be acquired through the LLC directory.
            // The upgrade touches only other cores' L1s, so `state`
            // and this way stay put.
            ++upgrades_;
            accessLlc(access, true);
            state = MesiState::Modified;
            l1.setDirtyAt(set, way, true);
            return;
          case MesiState::Invalid:
          default:
            casim_panic("valid L1 block in Invalid MESI state");
        }
    }

    accessLlc(access, false);
}

void
Hierarchy::run(const Trace &trace)
{
    casim_assert(trace.numCores() <= config_.numCores,
                 "trace uses more cores than the hierarchy has");
    if (capture_ != nullptr)
        capture_->reserve(capture_->size() + trace.size());
    for (const auto &access : trace)
        this->access(access);
}

void
Hierarchy::accessLlc(const MemAccess &access, bool is_upgrade)
{
    const Addr block_addr = access.blockAddr();
    const std::uint64_t my_bit = 1ULL << access.core;
    ReplContext ctx{block_addr, access.pc, access.core, access.isWrite,
                    llcSeq_, false};
    if (capture_ != nullptr)
        capture_->append(access);
    ++llcSeq_;
    cycles_ += config_.llcLatency;

    const unsigned set = llc_->setIndex(block_addr);
    unsigned way = llc_->accessWay(ctx);
    MesiState fill_state;
    if (way != config_.llc.ways) {
        LlcRecord &record = recordAt(set, way);
        record.touchedMask |= my_bit;
        record.written |= access.isWrite;
        ++record.hits;
        if (access.isWrite) {
            casim_assert(is_upgrade || (record.sharers & my_bit) == 0,
                         "write miss from a core the directory lists");
            // After this the requester is the only sharer (upgrade) or
            // the directory is empty until the L1 fill below.
            invalidateOtherSharers(set, way, block_addr, access.core);
            fill_state = MesiState::Modified;
        } else {
            downgradeOwner(set, way, block_addr, access.core);
            casim_assert((record.sharers & my_bit) == 0,
                         "read miss from a core the directory lists");
            fill_state = (record.sharers == 0) ? MesiState::Exclusive
                                               : MesiState::Shared;
        }
    } else {
        casim_assert(!is_upgrade, "upgrade for a block absent from LLC");
        sharing_.recordMiss();
        cycles_ += dram_ ? dram_->access(block_addr)
                         : config_.memLatency;
        ++memReads_;
        way = llc_->fillWay(ctx, llcVictim_);
        // The requester joins the directory on its L1 fill below.
        recordAt(set, way) = LlcRecord{.sharers = 0,
                                       .touchedMask = my_bit,
                                       .hits = 0,
                                       .written = access.isWrite};
        fill_state = access.isWrite ? MesiState::Modified
                                    : MesiState::Exclusive;
    }

    if (is_upgrade)
        return; // requester already holds the block in its L1

    // Install in the requester's L1.  The fill's dirty bit is already
    // right: a write always fills Modified and a read never does.
    Cache &l1 = *l1s_[access.core];
    const unsigned l1_way = l1.fillWay(ctx, l1Victim_[access.core]);
    l1StateAt(access.core, l1.setIndex(block_addr), l1_way) = fill_state;

    // The L1 fill may itself have evicted blocks, but never touches
    // the LLC's tags, so the block is still at (set, way).
    casim_assert(llc_->tagAt(set, way) == block_addr,
                 "LLC block vanished during L1 fill");
    recordAt(set, way).sharers |= my_bit;
}

bool
Hierarchy::invalidateL1Copy(CoreId core, Addr block)
{
    Cache &l1 = *l1s_[core];
    const unsigned set = l1.setIndex(block);
    const unsigned way = l1.findWay(set, block);
    casim_assert(way != config_.l1.ways, "directory lists core ",
                 unsigned(core), " without an L1 copy");
    const bool modified =
        l1StateAt(core, set, way) == MesiState::Modified;
    l1.invalidateWay(set, way);
    return modified;
}

void
Hierarchy::invalidateOtherSharers(unsigned set, unsigned way, Addr block,
                                  CoreId keep)
{
    LlcRecord &record = recordAt(set, way);
    std::uint64_t others = record.sharers & ~(1ULL << keep);
    while (others != 0) {
        const auto core = static_cast<CoreId>(std::countr_zero(others));
        others &= others - 1;
        if (invalidateL1Copy(core, block))
            // Dirty data flows through the LLC.
            llc_->setDirtyAt(set, way, true);
        ++invalidationsSent_;
    }
    record.sharers &= 1ULL << keep;
}

void
Hierarchy::downgradeOwner(unsigned set, unsigned way, Addr block,
                          CoreId requester)
{
    const std::uint64_t others =
        recordAt(set, way).sharers & ~(1ULL << requester);
    if (popCount(others) != 1)
        return; // zero sharers, or multiple sharers already in S
    const auto core = static_cast<CoreId>(std::countr_zero(others));
    Cache &l1 = *l1s_[core];
    const unsigned l1_set = l1.setIndex(block);
    const unsigned l1_way = l1.findWay(l1_set, block);
    casim_assert(l1_way != config_.l1.ways, "directory lists core ",
                 unsigned(core), " without an L1 copy");
    MesiState &state = l1StateAt(core, l1_set, l1_way);
    if (state == MesiState::Modified) {
        llc_->setDirtyAt(set, way, true);
        l1.setDirtyAt(l1_set, l1_way, false);
        state = MesiState::Shared;
        ++interventions_;
    } else if (state == MesiState::Exclusive) {
        state = MesiState::Shared;
        ++interventions_;
    }
}

void
Hierarchy::handleLlcVictim(unsigned set, unsigned way)
{
    const Addr victim = llc_->tagAt(set, way);
    const LlcRecord &record = recordAt(set, way);
    bool dirty_data = llc_->dirtyAt(set, way);
    std::uint64_t sharers = record.sharers;
    while (sharers != 0) {
        const auto core = static_cast<CoreId>(std::countr_zero(sharers));
        sharers &= sharers - 1;
        dirty_data |= invalidateL1Copy(core, victim);
        ++backInvals_;
    }
    if (dirty_data) {
        ++memWritebacks_;
        // Writebacks occupy the row buffers but are posted, so their
        // latency is not charged to the demand path.
        if (dram_)
            dram_->access(victim);
    }
    sharing_.recordResidency(record.touchedMask, record.hits,
                             record.written);
}

void
Hierarchy::handleL1Victim(CoreId core, unsigned set, unsigned way)
{
    const Addr victim = l1s_[core]->tagAt(set, way);
    const unsigned llc_set = llc_->setIndex(victim);
    const unsigned llc_way = llc_->findWay(llc_set, victim);
    casim_assert(llc_way != config_.llc.ways,
                 "inclusion violated: L1 victim absent from LLC");
    if (l1StateAt(core, set, way) == MesiState::Modified) {
        llc_->setDirtyAt(llc_set, llc_way, true);
        ++l1Writebacks_;
    }
    recordAt(llc_set, llc_way).sharers &= ~(1ULL << core);
}

void
Hierarchy::finish()
{
    for (unsigned set = 0; set < config_.llc.numSets(); ++set) {
        std::uint64_t live = llc_->validWays(set);
        while (live != 0) {
            const auto way = static_cast<unsigned>(std::countr_zero(live));
            live &= live - 1;
            const LlcRecord &record = recordAt(set, way);
            sharing_.recordResidency(record.touchedMask, record.hits,
                                     record.written);
        }
    }
    llc_->flushResidencies();
}

} // namespace casim
