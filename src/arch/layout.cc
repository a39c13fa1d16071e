#include "arch/layout.h"

#include <algorithm>

#include "common/logging.h"

namespace square {

Layout::Layout(int num_sites)
    : site_to_logical_(static_cast<size_t>(num_sites), kNoLogical),
      ever_used_(static_cast<size_t>(num_sites), 0)
{
    if (num_sites <= 0)
        fatal("layout needs a positive number of sites");
}

PhysQubit
Layout::siteOf(LogicalQubit q) const
{
    SQ_ASSERT(q >= 0 && q < next_logical_, "unknown logical qubit");
    PhysQubit site = logical_to_site_.at(static_cast<size_t>(q));
    SQ_ASSERT(site != kNoQubit, "logical qubit is not live");
    return site;
}

LogicalQubit
Layout::place(PhysQubit site)
{
    SQ_ASSERT(site >= 0 && site < numSites(), "site out of range");
    SQ_ASSERT(isFree(site), "placing a qubit on an occupied site");
    LogicalQubit q = next_logical_++;
    logical_to_site_.push_back(site);
    site_to_logical_[static_cast<size_t>(site)] = q;
    if (!ever_used_[static_cast<size_t>(site)]) {
        ever_used_[static_cast<size_t>(site)] = 1;
        ++sites_touched_;
    }
    ++num_live_;
    peak_live_ = std::max(peak_live_, num_live_);
    return q;
}

void
Layout::remove(LogicalQubit q)
{
    PhysQubit site = siteOf(q);
    site_to_logical_[static_cast<size_t>(site)] = kNoLogical;
    logical_to_site_[static_cast<size_t>(q)] = kNoQubit;
    --num_live_;
}

void
Layout::swapSites(PhysQubit a, PhysQubit b)
{
    SQ_ASSERT(a >= 0 && a < numSites() && b >= 0 && b < numSites(),
              "swap site out of range");
    if (a == b)
        return;
    LogicalQubit qa = site_to_logical_[static_cast<size_t>(a)];
    LogicalQubit qb = site_to_logical_[static_cast<size_t>(b)];
    std::swap(site_to_logical_[static_cast<size_t>(a)],
              site_to_logical_[static_cast<size_t>(b)]);
    if (qa != kNoLogical)
        logical_to_site_[static_cast<size_t>(qa)] = b;
    if (qb != kNoLogical)
        logical_to_site_[static_cast<size_t>(qb)] = a;
    // A swap can move a live qubit onto a never-used site.
    for (PhysQubit s : {a, b}) {
        if (site_to_logical_[static_cast<size_t>(s)] != kNoLogical &&
            !ever_used_[static_cast<size_t>(s)]) {
            ever_used_[static_cast<size_t>(s)] = 1;
            ++sites_touched_;
        }
    }
    if (swap_observer_)
        swap_observer_(a, b);
}

} // namespace square
