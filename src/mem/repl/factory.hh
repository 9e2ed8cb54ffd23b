/**
 * @file
 * The policy registry: name-based construction of every replacement
 * policy a study replays.
 */

#ifndef CASIM_MEM_REPL_FACTORY_HH
#define CASIM_MEM_REPL_FACTORY_HH

#include <optional>
#include <string>
#include <vector>

#include "mem/repl/policy.hh"

namespace casim {

class NextUseIndex;

/** Metadata describing one registered replacement policy. */
struct PolicyDesc
{
    /** Canonical lookup name, e.g. "srrip". */
    std::string name;

    /**
     * True when the policy reads the next-use index of the stream it
     * replays (Belady's OPT), so it cannot be built from (sets, ways)
     * alone.
     */
    bool needsNextUse = false;

    /**
     * True when every decision the policy makes for a set depends only
     * on that set's own event history, so replaying any partition of
     * the sets reproduces serial behavior exactly.  This is the
     * eligibility bit for set-sharded replay (see ShardedStreamSim).
     * False for policies with global state: set-dueling PSELs
     * (drrip/dip/tadip/tadrrip), BRRIP's shared insertion RNG, and
     * SHiP's shared signature history counter table.
     */
    bool perSetState = false;
};

/**
 * Factory for the named policy: "opt" or any builtinPolicyNames()
 * entry ("lru", "nru", "srrip", "brrip", "drrip", "dip", "ship",
 * "tadip", "tadrrip").  OPT reads `next_use`, the index over the exact
 * stream its caches replay, which must outlive every policy built;
 * the other policies ignore it.  Fatal on an unknown name, with a
 * message listing every known policy, and on "opt" without an index.
 */
ReplPolicyFactory requirePolicyFactory(const std::string &name,
                                       const NextUseIndex *next_use =
                                           nullptr);

/** Metadata for the named policy; std::nullopt if unknown. */
std::optional<PolicyDesc> policyDesc(const std::string &name);

/** Names of the online policies: every registered one but OPT. */
std::vector<std::string> builtinPolicyNames();

} // namespace casim

#endif // CASIM_MEM_REPL_FACTORY_HH
