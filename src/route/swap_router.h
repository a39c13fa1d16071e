/**
 * @file
 * NISQ communication: swap-chain routing.
 *
 * When a two-qubit gate targets non-adjacent sites, the router moves the
 * first operand along a shortest path until the operands are adjacent,
 * one SWAP per hop (each SWAP = 3 CNOTs; Sec. II-C1).  Swaps move
 * qubits - which is exactly why reclaiming ancilla "in place" improves
 * locality for later allocations.
 *
 * The router only chooses the hops: it hands each one, in chain order,
 * to the caller's hop step (the scheduler's, which schedules the swap,
 * exchanges the two layout entries and keeps the ancilla heap current).
 * The hop step is a template argument, so a chain makes no type-erased
 * or virtual call per hop.
 *
 * On a LatticeTopology - every NISQ machine - the router walks the same
 * L path that LatticeTopology::pathInto writes (horizontal leg first,
 * then vertical) in closed form, and tests adjacency without dividing.
 * Any other topology goes through the virtual adjacent() and pathInto()
 * into a reused scratch vector; that path is the parity reference for
 * the lattice walk (SwapRouterParity in tests/test_route.cc).  Routing
 * performs no heap allocation.
 */

#ifndef SQUARE_ROUTE_SWAP_ROUTER_H
#define SQUARE_ROUTE_SWAP_ROUTER_H

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "arch/topology.h"
#include "common/logging.h"

namespace square {

/** Chooses the hops of swap chains that bring qubits together. */
class SwapRouter
{
  public:
    explicit SwapRouter(const Topology &topo);

    /** True if the sites @p a and @p b may interact without routing. */
    bool
    adjacent(PhysQubit a, PhysQubit b) const
    {
        if (width_ == 0)
            return topo_.adjacent(a, b);
        // On a lattice: one row apart in the same column, or
        // consecutive ids in one row (the larger is no row start).
        const PhysQubit d = b - a;
        if (d == width_ || d == -width_ || d == 0)
            return true;
        return (d == 1 || d == -1) &&
               !isRowStart(static_cast<uint32_t>(d == 1 ? b : a));
    }

    /**
     * Make the qubits at @p a and @p b adjacent by swapping the qubit
     * at @p a along a shortest path toward @p b, stopping one hop
     * short of it.  @p a is updated to the qubit's final site.  Each
     * hop (from, to) goes to @p hop in chain order, which must apply
     * it before the next one.
     *
     * @return the number of swaps performed.
     */
    template <typename Hop>
    int
    makeAdjacent(PhysQubit &a, PhysQubit b, Hop &&hop)
    {
        SQ_ASSERT(a != b, "cannot route a qubit to itself");
        if (adjacent(a, b))
            return 0;
        return walk(a, b, /*stop_short=*/1, hop);
    }

    /**
     * Move the qubit at @p a all the way onto site @p dest (used to
     * gather three operands of a macro Toffoli around the target).
     * @p a is updated to @p dest.
     *
     * @return the number of swaps performed.
     */
    template <typename Hop>
    int
    moveTo(PhysQubit &a, PhysQubit dest, Hop &&hop)
    {
        if (a == dest)
            return 0;
        return walk(a, dest, /*stop_short=*/0, hop);
    }

  private:
    /**
     * Hop from @p a along the path to @p b, all but the last
     * @p stop_short hops, and leave @p a on the last site reached.  At
     * least one hop remains: makeAdjacent walks only between sites two
     * or more hops apart, moveTo only between distinct sites.
     */
    template <typename Hop>
    int
    walk(PhysQubit &a, PhysQubit b, int stop_short, Hop &hop)
    {
        if (width_ == 0)
            return walkPath(a, b, stop_short, hop);
        const int dx = b % width_ - a % width_;
        const int dy = b / width_ - a / width_;
        const int hops = std::abs(dx) + std::abs(dy) - stop_short;
        SQ_ASSERT(hops > 0, "non-adjacent sites with path < 3");
        // Horizontal leg first, then vertical, as pathInto writes it.
        const PhysQubit step_x = dx > 0 ? 1 : -1;
        const PhysQubit step_y = dy > 0 ? width_ : -width_;
        const int along_x = std::min(std::abs(dx), hops);
        PhysQubit s = a;
        for (int k = 0; k < along_x; ++k, s += step_x)
            hop(s, s + step_x);
        for (int k = along_x; k < hops; ++k, s += step_y)
            hop(s, s + step_y);
        a = s;
        return hops;
    }

    /** walk() on any topology, through pathInto (parity reference). */
    template <typename Hop>
    int
    walkPath(PhysQubit &a, PhysQubit b, int stop_short, Hop &hop)
    {
        topo_.pathInto(a, b, route_);
        SQ_ASSERT(route_.size() > 1 + static_cast<size_t>(stop_short),
                  "non-adjacent sites with path < 3");
        const size_t hops = route_.size() - 1 - stop_short;
        for (size_t k = 0; k < hops; ++k)
            hop(route_[k], route_[k + 1]);
        a = route_[hops];
        return static_cast<int>(hops);
    }

    /** True when @p site is a multiple of the lattice width. */
    bool
    isRowStart(uint32_t site) const
    {
        // Divisibility by one multiplication (Lemire, Kaser and Kurz,
        // "Faster remainder by direct computation", 2019): exact for
        // every 32-bit site and width.
        return site * width_inverse_ <= width_inverse_ - 1;
    }

    const Topology &topo_;
    /** Lattice width, or 0 when the topology is not a lattice. */
    PhysQubit width_ = 0;
    /** ceil(2^64 / width_) modulo 2^64, for isRowStart(). */
    uint64_t width_inverse_ = 0;
    /** pathInto scratch, used off lattices only. */
    std::vector<PhysQubit> route_;
};

} // namespace square

#endif // SQUARE_ROUTE_SWAP_ROUTER_H
