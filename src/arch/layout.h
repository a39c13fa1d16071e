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
#include <functional>
#include <vector>

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
    PhysQubit siteOf(LogicalQubit q) const;

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

    /** Allocate a fresh logical qubit at an empty @p site. */
    LogicalQubit place(PhysQubit site);

    /** Remove a live logical qubit; its site becomes empty. */
    void remove(LogicalQubit q);

    /** Exchange the contents of two sites (either may be empty). */
    void swapSites(PhysQubit a, PhysQubit b);

    /** Total logical qubits ever allocated. */
    int totalAllocated() const { return next_logical_; }

    /** Callback invoked after every swapSites(a, b) with a != b. */
    using SwapObserver = std::function<void(PhysQubit, PhysQubit)>;

    /** Register a post-swap observer (e.g. the ancilla heap). */
    void setSwapObserver(SwapObserver obs) { swap_observer_ = std::move(obs); }

  private:
    SwapObserver swap_observer_;
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
