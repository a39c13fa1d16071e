/**
 * @file
 * The ancilla heap: the pool of reclaimed |0> sites (Sec. III-A).
 *
 * Sites enter the heap when uncomputation (or garbage consumption during
 * inverse replay) returns them to |0>; allocations either pop from the
 * heap or claim brand-new sites.  Swap chains can relocate free sites
 * (swapping a live qubit with an empty site leaves the |0> behind on the
 * other side), so the scheduler's swap step calls onSwap() after each
 * layout exchange to keep the heap's site ids current.  This header
 * depends only on arch/layout.h, so the scheduler can hold the heap.
 *
 * contains() is queried once per site visited by the allocator's
 * candidate sweep - millions of times per compilation - so membership
 * is a direct-indexed position table (site -> stack slot), not a hash
 * map.  The table covers every site of the machine from construction,
 * so the query needs no bound test, and the stack is reserved to one
 * slot per site.
 */

#ifndef SQUARE_CORE_HEAP_H
#define SQUARE_CORE_HEAP_H

#include <vector>

#include "arch/layout.h"

namespace square {

/** LIFO pool of reclaimed sites with by-site removal. */
class AncillaHeap
{
  public:
    /** An empty heap over sites [0, @p num_sites). */
    explicit AncillaHeap(int num_sites);

    /** Number of sites currently in the heap. */
    int size() const { return live_count_; }

    bool empty() const { return live_count_ == 0; }

    /** True when @p site (a site of the machine) is in the heap. */
    bool
    contains(PhysQubit site) const
    {
        return pos_[static_cast<size_t>(site)] >= 0;
    }

    /** Add a reclaimed site (must not already be present). */
    void push(PhysQubit site);

    /** Pop the most recently reclaimed site (fatal when empty). */
    PhysQubit popLifo();

    /** Remove a specific site (used by locality-aware allocation). */
    void take(PhysQubit site);

    /**
     * Layout swap notification: when a swap relocates an empty |0>
     * site, rename the heap entry to the new location.  After the swap,
     * membership must match "free and ever-used".  Two occupied sites
     * were occupied before the swap too, so neither is (or may become)
     * a member: that exit is inline, the repair is not.
     */
    void
    onSwap(PhysQubit a, PhysQubit b, const Layout &layout)
    {
        if (!layout.isFree(a) && !layout.isFree(b))
            return;
        repair(a, layout);
        repair(b, layout);
    }

  private:
    /** Make @p site a member exactly when it is free and ever-used. */
    void repair(PhysQubit site, const Layout &layout);

    void compact();

    static constexpr PhysQubit kTombstone = -2;
    static constexpr int32_t kAbsent = -1;

    std::vector<PhysQubit> stack_;
    /** site -> index in stack_, kAbsent when not a member. */
    std::vector<int32_t> pos_;
    int live_count_ = 0;
};

} // namespace square

#endif // SQUARE_CORE_HEAP_H
