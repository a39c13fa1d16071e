#include "core/heap.h"

#include "common/logging.h"

namespace square {

void
AncillaHeap::push(PhysQubit site)
{
    SQ_ASSERT(!contains(site), "site already in ancilla heap");
    if (static_cast<size_t>(site) >= pos_.size())
        pos_.resize(static_cast<size_t>(site) + 1, kAbsent);
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
    SQ_ASSERT(contains(site), "taking a site not in the heap");
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
AncillaHeap::onSwap(PhysQubit a, PhysQubit b, const Layout &layout)
{
    // After the swap, membership must match "free and ever-used".  Two
    // occupied sites were occupied before the swap too, so neither is
    // (or may become) a member.
    if (!layout.isFree(a) && !layout.isFree(b))
        return;
    for (PhysQubit s : {a, b}) {
        bool should = layout.isFree(s) && layout.everUsed(s);
        bool has = contains(s);
        if (should && !has) {
            push(s);
        } else if (!should && has) {
            take(s);
        }
    }
}

} // namespace square
