/**
 * @file
 * Bidirectional mapping between logical (allocated) qubits and sites.
 *
 * A logical qubit is the unit of allocation/reclamation and the entity
 * whose liveness AQV integrates.  Swap chains move logical qubits
 * between sites; the layout tracks current positions, which sites are
 * empty, and which sites have ever held a qubit (distinguishing the
 * ancilla heap from brand-new qubits in Alg. 1).
 */

#ifndef SQUARE_ARCH_LAYOUT_H
#define SQUARE_ARCH_LAYOUT_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "ir/qubit.h"

namespace square {

/** Identifier of an allocated (live) qubit. */
using LogicalQubit = int32_t;

/** Sentinel for "no logical qubit". */
inline constexpr LogicalQubit kNoLogical = -1;

/** Tracks which logical qubit occupies which site. */
class Layout
{
  public:
    explicit Layout(int num_sites);

    /** Number of machine sites. */
    int numSites() const { return static_cast<int>(site_to_logical_.size()); }

    /** Count of currently live logical qubits. */
    int numLive() const { return num_live_; }

    /** Peak simultaneous live count observed so far. */
    int peakLive() const { return peak_live_; }

    /** Total distinct sites ever occupied (machine footprint). */
    int sitesTouched() const { return sites_touched_; }

    /** Site currently holding @p q (fatal if q is not live). */
    PhysQubit
    siteOf(LogicalQubit q) const
    {
        SQ_ASSERT(q >= 0 && q < next_logical_, "unknown logical qubit");
        const PhysQubit site = logical_to_site_[static_cast<size_t>(q)];
        SQ_ASSERT(site != kNoQubit, "logical qubit is not live");
        return site;
    }

    /** Logical qubit at @p site, or kNoLogical when empty. */
    PhysQubit
    qubitAt(PhysQubit site) const
    {
        return site_to_logical_.at(static_cast<size_t>(site));
    }

    /** True when @p site holds no live qubit. */
    bool isFree(PhysQubit site) const { return qubitAt(site) == kNoLogical; }

    /** True when @p site has held a qubit at some point. */
    bool
    everUsed(PhysQubit site) const
    {
        return ever_used_.at(static_cast<size_t>(site)) != 0;
    }

    /**
     * Reserve the logical-qubit table for @p n placements: logical ids
     * are never reused, so the first @p n place() calls then grow
     * nothing.
     */
    void reserveLogical(size_t n) { logical_to_site_.reserve(n); }

    /** Allocate a fresh logical qubit at an empty @p site. */
    LogicalQubit place(PhysQubit site);

    /** Remove a live logical qubit; its site becomes empty. */
    void remove(LogicalQubit q);

    /**
     * Exchange the contents of two sites (either may be empty).  Inline:
     * every routing swap makes one call.  The caller keeps whatever
     * tracks free sites (the ancilla heap) current.
     */
    void
    swapSites(PhysQubit a, PhysQubit b)
    {
        SQ_ASSERT(a >= 0 && a < numSites() && b >= 0 && b < numSites(),
                  "swap site out of range");
        if (a == b)
            return;
        const LogicalQubit qa = site_to_logical_[static_cast<size_t>(a)];
        const LogicalQubit qb = site_to_logical_[static_cast<size_t>(b)];
        site_to_logical_[static_cast<size_t>(a)] = qb;
        site_to_logical_[static_cast<size_t>(b)] = qa;
        if (qa != kNoLogical)
            logical_to_site_[static_cast<size_t>(qa)] = b;
        if (qb != kNoLogical)
            logical_to_site_[static_cast<size_t>(qb)] = a;
        // A swap can move a live qubit onto a never-used site.
        if (qa != kNoLogical)
            markUsed(b);
        if (qb != kNoLogical)
            markUsed(a);
    }

  private:
    void
    markUsed(PhysQubit site)
    {
        uint8_t &used = ever_used_[static_cast<size_t>(site)];
        if (!used) {
            used = 1;
            ++sites_touched_;
        }
    }

    std::vector<LogicalQubit> site_to_logical_;
    std::vector<PhysQubit> logical_to_site_;
    /** One byte per site (not vector<bool>): read per sweep visit. */
    std::vector<uint8_t> ever_used_;
    LogicalQubit next_logical_ = 0;
    int num_live_ = 0;
    int peak_live_ = 0;
    int sites_touched_ = 0;
};

} // namespace square

#endif // SQUARE_ARCH_LAYOUT_H
