/**
 * @file
 * Implementation of the LLC sharing tracker.
 */

#include "core/sharing_tracker.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace casim {

const char *
sharingClassName(SharingClass cls)
{
    switch (cls) {
      case SharingClass::PrivateReadOnly:
        return "private_ro";
      case SharingClass::PrivateReadWrite:
        return "private_rw";
      case SharingClass::SharedReadOnly:
        return "shared_ro";
      case SharingClass::SharedReadWrite:
        return "shared_rw";
    }
    return "?";
}

SharingClass
classifyResidency(std::uint64_t touched_mask, bool written)
{
    if (popCount(touched_mask) >= 2)
        return written ? SharingClass::SharedReadWrite
                       : SharingClass::SharedReadOnly;
    return written ? SharingClass::PrivateReadWrite
                   : SharingClass::PrivateReadOnly;
}

namespace {

std::vector<std::string>
classLabels()
{
    return {"private_ro", "private_rw", "shared_ro", "shared_rw"};
}

std::vector<std::string>
sharerLabels(unsigned num_cores)
{
    std::vector<std::string> labels;
    for (unsigned c = 1; c <= num_cores; ++c)
        labels.push_back(std::to_string(c) + "_cores");
    return labels;
}

} // namespace

SharingTracker::SharingTracker(unsigned num_cores)
    : numCores_(num_cores),
      stats_("sharing"),
      sharedHits_(stats_.addCounter(
          "shared_hits", "LLC hits served by shared residencies")),
      privateHits_(stats_.addCounter(
          "private_hits", "LLC hits served by private residencies")),
      misses_(stats_.addCounter("misses", "LLC demand misses")),
      deadFills_(stats_.addCounter("dead_fills",
                                   "residencies with zero hits")),
      classHits_(stats_.addVector("class_hits",
                                  "LLC hits by sharing class",
                                  classLabels())),
      classResidencies_(stats_.addVector("class_residencies",
                                         "residencies by sharing class",
                                         classLabels())),
      sharerHits_(stats_.addVector("sharer_hits",
                                   "LLC hits by residency sharer count",
                                   sharerLabels(num_cores))),
      sharerResidencies_(stats_.addVector(
          "sharer_residencies", "residencies by sharer count",
          sharerLabels(num_cores)))
{
    casim_assert(num_cores >= 1 && num_cores <= kMaxCores,
                 "bad core count ", num_cores);
}

void
SharingTracker::recordResidency(std::uint64_t touched_mask,
                                std::uint64_t hits, bool written)
{
    const SharingClass cls = classifyResidency(touched_mask, written);
    const unsigned sharers = popCount(touched_mask);
    casim_assert(sharers >= 1 && sharers <= numCores_,
                 "residency with ", sharers, " sharers");

    const auto cls_index = static_cast<std::size_t>(cls);
    classResidencies_.add(cls_index);
    classHits_.add(cls_index, hits);
    sharerResidencies_.add(sharers - 1);
    sharerHits_.add(sharers - 1, hits);

    if (sharers >= 2)
        sharedHits_ += hits;
    else
        privateHits_ += hits;

    if (hits == 0)
        ++deadFills_;
}

std::uint64_t
SharingTracker::sharedResidencies() const
{
    return residenciesByClass(SharingClass::SharedReadOnly) +
           residenciesByClass(SharingClass::SharedReadWrite);
}

std::uint64_t
SharingTracker::privateResidencies() const
{
    return residenciesByClass(SharingClass::PrivateReadOnly) +
           residenciesByClass(SharingClass::PrivateReadWrite);
}

double
SharingTracker::sharedHitFraction() const
{
    const std::uint64_t total = totalHits();
    if (total == 0)
        return 0.0;
    return static_cast<double>(sharedHits_.value()) /
           static_cast<double>(total);
}

std::uint64_t
SharingTracker::hitsByClass(SharingClass cls) const
{
    return classHits_.value(static_cast<std::size_t>(cls));
}

std::uint64_t
SharingTracker::residenciesByClass(SharingClass cls) const
{
    return classResidencies_.value(static_cast<std::size_t>(cls));
}

std::uint64_t
SharingTracker::hitsBySharerCount(unsigned cores) const
{
    casim_assert(cores >= 1 && cores <= numCores_,
                 "sharer count out of range");
    return sharerHits_.value(cores - 1);
}

} // namespace casim
