#include "core/heap.h"

#include "common/logging.h"

namespace square {

AncillaHeap::AncillaHeap(int num_sites)
    : pos_(static_cast<size_t>(num_sites), kAbsent)
{
    stack_.reserve(static_cast<size_t>(num_sites));
}

void
AncillaHeap::push(PhysQubit site)
{
    SQ_ASSERT(site >= 0 && static_cast<size_t>(site) < pos_.size(),
              "site out of range");
    SQ_ASSERT(!contains(site), "site already in ancilla heap");
    stack_.push_back(site);
    pos_[static_cast<size_t>(site)] = static_cast<int32_t>(stack_.size() - 1);
    ++live_count_;
}

PhysQubit
AncillaHeap::popLifo()
{
    while (!stack_.empty()) {
        PhysQubit site = stack_.back();
        stack_.pop_back();
        if (site == kTombstone)
            continue;
        pos_[static_cast<size_t>(site)] = kAbsent;
        --live_count_;
        return site;
    }
    panic("popLifo on empty ancilla heap");
}

void
AncillaHeap::take(PhysQubit site)
{
    SQ_ASSERT(site >= 0 && static_cast<size_t>(site) < pos_.size() &&
                  contains(site),
              "taking a site not in the heap");
    int32_t idx = pos_[static_cast<size_t>(site)];
    stack_[static_cast<size_t>(idx)] = kTombstone;
    pos_[static_cast<size_t>(site)] = kAbsent;
    --live_count_;
    if (static_cast<int>(stack_.size()) > 4 * live_count_ + 16)
        compact();
}

void
AncillaHeap::compact()
{
    size_t out = 0;
    for (size_t i = 0; i < stack_.size(); ++i) {
        PhysQubit s = stack_[i];
        if (s == kTombstone)
            continue;
        stack_[out] = s;
        pos_[static_cast<size_t>(s)] = static_cast<int32_t>(out);
        ++out;
    }
    stack_.resize(out);
}

void
AncillaHeap::repair(PhysQubit site, const Layout &layout)
{
    const bool should = layout.isFree(site) && layout.everUsed(site);
    const bool has = contains(site);
    if (should && !has) {
        push(site);
    } else if (!should && has) {
        take(site);
    }
}

} // namespace square
