/**
 * @file
 * Static dispatch over the built-in replacement policies.
 *
 * A replay makes one to four ReplPolicy calls per reference.  Through
 * the base class each is a virtual call the compiler cannot inline;
 * through a reference to a `final` class it is a direct call to a hook
 * defined in that class's header, which inlines into the replay loop.
 * visitPolicy() resolves a policy's concrete type once, so the caller
 * can instantiate its loop for that type and pay the dispatch once per
 * replay instead of once per hook call.
 *
 * A policy joins the statically dispatched set by being `final`,
 * defining its per-access hooks (victim, onHit, onFill, onEvict) in its
 * header, and getting one line in visitPolicy() below; every policy in
 * the registry (mem/repl/factory.hh) does.  Any other policy still
 * works: it reaches the visitor's fallback, which dispatches
 * virtually.  A sharing-aware wrapper over LRU or SRRIP is
 * handed to the visitor as a SharingAwareOver view, so its calls into
 * the base are direct too: with the wrapper's mask-based state that
 * measured 10-25% faster on the oracle-wrapped microbench.  The
 * labeler stays a virtual call: typing the oracle's measured within
 * noise.
 */

#ifndef CASIM_CORE_POLICY_VISIT_HH
#define CASIM_CORE_POLICY_VISIT_HH

#include "core/sharing_aware.hh"
#include "mem/repl/dip.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/nru.hh"
#include "mem/repl/opt.hh"
#include "mem/repl/policy.hh"
#include "mem/repl/rrip.hh"
#include "mem/repl/ship.hh"
#include "mem/repl/thread_aware.hh"

namespace casim {

/**
 * Call `visit(p)` with `policy` as its concrete final type `p` if that
 * is one of the statically dispatched policies, else `visit(policy)`
 * with the ReplPolicy reference itself (virtual dispatch).  `visit`
 * must accept every one of those types, typically by being a generic
 * lambda; its result is returned.
 */
template <typename Visitor>
decltype(auto)
visitPolicy(ReplPolicy &policy, Visitor &&visit)
{
    if (auto *p = dynamic_cast<LruPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<NruPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<SrripPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<BrripPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<DrripPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<DipPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<ShipPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<TadipPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<TaDrripPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<OptPolicy *>(&policy))
        return visit(*p);
    if (auto *p = dynamic_cast<SharingAwareWrapper *>(&policy)) {
        // The study's sharing-aware cells wrap LRU or SRRIP; their
        // base hooks are typed too.
        if (auto *b = dynamic_cast<LruPolicy *>(&p->base())) {
            SharingAwareOver<LruPolicy> typed{*p, *b};
            return visit(typed);
        }
        if (auto *b = dynamic_cast<SrripPolicy *>(&p->base())) {
            SharingAwareOver<SrripPolicy> typed{*p, *b};
            return visit(typed);
        }
        return visit(*p);
    }
    return visit(policy);
}

} // namespace casim

#endif // CASIM_CORE_POLICY_VISIT_HH
