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
    // MESI state and the LLC's in-tag directory live in the CacheBlock
    // payload, so every cache of the hierarchy carries one.
    for (unsigned core = 0; core < config_.numCores; ++core) {
        const unsigned sets = config_.l1.numSets();
        l1s_.push_back(std::make_unique<Cache>(
            "l1_" + std::to_string(core), config_.l1,
            std::make_unique<LruPolicy>(sets, config_.l1.ways)));
        l1s_.back()->allocatePayload();
    }
    llc_ = std::make_unique<Cache>(
        "llc", config_.llc,
        llc_policy(config_.llc.numSets(), config_.llc.ways));
    llc_->allocatePayload();
    if (config_.useDramModel)
        dram_ = std::make_unique<DramModel>(config_.dram);
}

void
Hierarchy::setLlcObserver(CacheObserver *observer)
{
    llc_->setObserver(observer);
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
    CacheBlock *blk = l1.access(ctx);

    if (blk != nullptr) {
        if (!access.isWrite)
            return;
        switch (blk->state) {
          case MesiState::Modified:
            return;
          case MesiState::Exclusive:
            // Silent upgrade: exclusivity implies no other copies.
            blk->state = MesiState::Modified;
            l1.setBlockDirty(*blk, true);
            return;
          case MesiState::Shared:
            // Ownership must be acquired through the LLC directory.
            ++upgrades_;
            accessLlc(access, true);
            blk->state = MesiState::Modified;
            l1.setBlockDirty(*blk, true);
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
        capture_->append(block_addr, access.pc, access.core,
                         access.isWrite);
    ++llcSeq_;
    cycles_ += config_.llcLatency;

    CacheBlock *lb = llc_->access(ctx);
    MesiState fill_state;
    if (lb != nullptr) {
        if (access.isWrite) {
            casim_assert(is_upgrade || (lb->sharers & my_bit) == 0,
                         "write miss from a core the directory lists");
            // After this the requester is the only sharer (upgrade) or
            // the directory is empty until the L1 fill below.
            invalidateOtherSharers(*lb, access.core);
            fill_state = MesiState::Modified;
        } else {
            downgradeOwner(*lb, access.core);
            casim_assert((lb->sharers & my_bit) == 0,
                         "read miss from a core the directory lists");
            fill_state = (lb->sharers == 0) ? MesiState::Exclusive
                                            : MesiState::Shared;
        }
    } else {
        casim_assert(!is_upgrade, "upgrade for a block absent from LLC");
        cycles_ += dram_ ? dram_->access(block_addr)
                         : config_.memLatency;
        ++memReads_;
        CacheBlock &filled =
            llc_->fill(ctx, [this](const CacheBlock &victim, unsigned,
                                   unsigned) {
                handleLlcVictim(victim);
            });
        filled.sharers = 0; // requester added on L1 fill below
        fill_state = access.isWrite ? MesiState::Modified
                                    : MesiState::Exclusive;
        lb = &filled;
    }

    if (is_upgrade)
        return; // requester already holds the block in its L1

    // Install in the requester's L1 and record it in the directory.
    const Addr llc_addr = lb->addr;
    CacheBlock &l1b = l1s_[access.core]->fill(
        ctx, [this, core = access.core](const CacheBlock &victim,
                                        unsigned, unsigned) {
            handleL1Victim(core, victim);
        });
    l1b.state = fill_state;
    l1s_[access.core]->setBlockDirty(l1b,
                                     fill_state == MesiState::Modified);

    // The L1 fill may itself have evicted blocks, but never this one:
    // re-probe is unnecessary because the LLC block cannot have moved.
    CacheBlock *after = llc_->probe(llc_addr);
    casim_assert(after == lb, "LLC block vanished during L1 fill");
    lb->sharers |= my_bit;
}

void
Hierarchy::invalidateOtherSharers(CacheBlock &llc_block, CoreId keep)
{
    std::uint64_t others = llc_block.sharers & ~(1ULL << keep);
    while (others != 0) {
        const unsigned core = std::countr_zero(others);
        others &= others - 1;
        CacheBlock *remote = l1s_[core]->probe(llc_block.addr);
        casim_assert(remote != nullptr,
                     "directory lists core ", core,
                     " without an L1 copy");
        if (remote->state == MesiState::Modified)
            // Dirty data flows through the LLC.
            llc_->setBlockDirty(llc_block, true);
        l1s_[core]->invalidate(llc_block.addr);
        ++invalidationsSent_;
    }
    llc_block.sharers &= 1ULL << keep;
}

void
Hierarchy::downgradeOwner(CacheBlock &llc_block, CoreId requester)
{
    const std::uint64_t others =
        llc_block.sharers & ~(1ULL << requester);
    if (popCount(others) != 1)
        return; // zero sharers, or multiple sharers already in S
    const unsigned core = std::countr_zero(others);
    CacheBlock *remote = l1s_[core]->probe(llc_block.addr);
    casim_assert(remote != nullptr,
                 "directory lists core ", core, " without an L1 copy");
    if (remote->state == MesiState::Modified) {
        llc_->setBlockDirty(llc_block, true);
        l1s_[core]->setBlockDirty(*remote, false);
        remote->state = MesiState::Shared;
        ++interventions_;
    } else if (remote->state == MesiState::Exclusive) {
        remote->state = MesiState::Shared;
        ++interventions_;
    }
}

void
Hierarchy::handleLlcVictim(const CacheBlock &victim)
{
    bool dirty_data = victim.dirty;
    std::uint64_t sharers = victim.sharers;
    while (sharers != 0) {
        const unsigned core = std::countr_zero(sharers);
        sharers &= sharers - 1;
        CacheBlock *remote = l1s_[core]->probe(victim.addr);
        casim_assert(remote != nullptr,
                     "directory lists core ", core,
                     " without an L1 copy");
        if (remote->state == MesiState::Modified)
            dirty_data = true;
        l1s_[core]->invalidate(victim.addr);
        ++backInvals_;
    }
    if (dirty_data) {
        ++memWritebacks_;
        // Writebacks occupy the row buffers but are posted, so their
        // latency is not charged to the demand path.
        if (dram_)
            dram_->access(victim.addr);
    }
}

void
Hierarchy::handleL1Victim(CoreId core, const CacheBlock &victim)
{
    CacheBlock *lb = llc_->probe(victim.addr);
    casim_assert(lb != nullptr,
                 "inclusion violated: L1 victim absent from LLC");
    if (victim.state == MesiState::Modified) {
        llc_->setBlockDirty(*lb, true);
        ++l1Writebacks_;
    }
    lb->sharers &= ~(1ULL << core);
}

void
Hierarchy::finish()
{
    llc_->flushResidencies();
}

} // namespace casim
