/**
 * @file
 * MESI state names and the replacement-policy registry.
 */

#include "mem/repl/factory.hh"

#include "common/logging.hh"
#include "mem/block.hh"
#include "mem/repl/dip.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/nru.hh"
#include "mem/repl/opt.hh"
#include "mem/repl/rrip.hh"
#include "mem/repl/ship.hh"
#include "mem/repl/thread_aware.hh"

namespace casim {

const char *
mesiStateName(MesiState state)
{
    switch (state) {
      case MesiState::Invalid:
        return "I";
      case MesiState::Shared:
        return "S";
      case MesiState::Exclusive:
        return "E";
      case MesiState::Modified:
        return "M";
    }
    return "?";
}

namespace {

struct PolicyEntry
{
    PolicyDesc desc;
    std::unique_ptr<ReplPolicy> (*make)(unsigned sets, unsigned ways,
                                        const NextUseIndex *next_use);
};

/** Construct `Policy` for a geometry, with any extra constructor args. */
template <typename Policy, auto... Args>
std::unique_ptr<ReplPolicy>
make(unsigned sets, unsigned ways, const NextUseIndex *)
{
    return std::make_unique<Policy>(sets, ways, Args...);
}

std::unique_ptr<ReplPolicy>
makeOpt(unsigned sets, unsigned ways, const NextUseIndex *next_use)
{
    return std::make_unique<OptPolicy>(sets, ways, *next_use);
}

// Every policy a study names.  The registry has no thread-count channel
// for the thread-aware policies; the study's 8-core CMP is assumed.
// Construct TadipPolicy / TaDrripPolicy directly for other thread
// counts.  perSetState (the last field) marks the policies whose
// per-set decisions never read cross-set state, i.e. the ones eligible
// for set-sharded replay: LRU's clock only orders within a set, NRU and
// SRRIP keep pure per-set metadata, and OPT's victim choice reads only
// the set's own next-use values (keyed by global stream position, which
// sharded replay preserves).  The set-dueling policies (drrip/dip/
// tadip/tadrrip), BRRIP's shared insertion RNG and SHiP's global SHCT
// are not shardable.
const PolicyEntry kPolicyTable[] = {
    {{"opt", true, true}, makeOpt},
    {{"lru", false, true}, make<LruPolicy>},
    {{"nru", false, true}, make<NruPolicy>},
    {{"srrip", false, true}, make<SrripPolicy>},
    {{"brrip", false, false}, make<BrripPolicy>},
    {{"drrip", false, false}, make<DrripPolicy>},
    {{"dip", false, false}, make<DipPolicy>},
    {{"ship", false, false}, make<ShipPolicy>},
    {{"tadip", false, false}, make<TadipPolicy, 8u>},
    {{"tadrrip", false, false}, make<TaDrripPolicy, 8u>},
};

const PolicyEntry *
findPolicy(const std::string &name)
{
    for (const auto &entry : kPolicyTable) {
        if (entry.desc.name == name)
            return &entry;
    }
    return nullptr;
}

} // namespace

ReplPolicyFactory
requirePolicyFactory(const std::string &name, const NextUseIndex *next_use)
{
    const PolicyEntry *entry = findPolicy(name);
    if (entry == nullptr) {
        std::string known;
        for (const auto &other : kPolicyTable) {
            if (!known.empty())
                known += ", ";
            known += other.desc.name;
        }
        casim_fatal("unknown replacement policy '", name,
                    "' (known: ", known, ")");
    }
    if (entry->desc.needsNextUse && next_use == nullptr)
        casim_fatal("replacement policy '", name,
                    "' needs a next-use index");
    return [entry, next_use](unsigned sets, unsigned ways) {
        return entry->make(sets, ways, next_use);
    };
}

std::optional<PolicyDesc>
policyDesc(const std::string &name)
{
    const PolicyEntry *entry = findPolicy(name);
    if (entry == nullptr)
        return std::nullopt;
    return entry->desc;
}

std::vector<std::string>
builtinPolicyNames()
{
    std::vector<std::string> names;
    for (const auto &entry : kPolicyTable) {
        if (!entry.desc.needsNextUse)
            names.push_back(entry.desc.name);
    }
    return names;
}

} // namespace casim
