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

LogicalQubit
Layout::place(PhysQubit site)
{
    SQ_ASSERT(site >= 0 && site < numSites(), "site out of range");
    SQ_ASSERT(isFree(site), "placing a qubit on an occupied site");
    LogicalQubit q = next_logical_++;
    logical_to_site_.push_back(site);
    site_to_logical_[static_cast<size_t>(site)] = q;
    markUsed(site);
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

} // namespace square
