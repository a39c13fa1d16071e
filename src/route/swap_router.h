/**
 * @file
 * NISQ communication: swap-chain routing.
 *
 * When a two-qubit gate targets non-adjacent sites, the router moves the
 * first operand along a shortest path until the operands are adjacent,
 * emitting one SWAP per hop (each SWAP = 3 CNOTs; Sec. II-C1).  Swaps
 * update the layout - qubits physically migrate, which is exactly why
 * reclaiming ancilla "in place" improves locality for later allocations.
 *
 * Routing is on the per-gate hot path, so the route scratch vector is a
 * reused member, reserved once to the topology's diameter, and the
 * emitter callback is a non-allocating FunctionRef: routing performs no
 * heap allocation.
 */

#ifndef SQUARE_ROUTE_SWAP_ROUTER_H
#define SQUARE_ROUTE_SWAP_ROUTER_H

#include <vector>

#include "arch/layout.h"
#include "arch/topology.h"
#include "common/function_ref.h"

namespace square {

/** Moves qubits together with swap chains. */
class SwapRouter
{
  public:
    /** Callback invoked once per emitted swap (site pair, pre-swap). */
    using SwapEmitter = FunctionRef<void(PhysQubit, PhysQubit)>;

    SwapRouter(const Topology &topo, Layout &layout)
        : topo_(topo), layout_(layout)
    {
        route_.reserve(static_cast<size_t>(topo.diameter()) + 1);
    }

    /**
     * Make the qubits at @p a and @p b adjacent by swapping the qubit
     * at @p a along a shortest path toward @p b.  @p a is updated to
     * the qubit's final site.  Emits swaps via @p emit *before*
     * applying them to the layout, so the consumer sees pre-swap
     * occupancy.
     *
     * @return the number of swaps performed.
     */
    int makeAdjacent(PhysQubit &a, PhysQubit b, SwapEmitter emit);

    /**
     * Move the qubit at @p a all the way onto site @p dest (used to
     * gather three operands of a macro Toffoli around the target).
     * @p a is updated to @p dest.
     *
     * @return the number of swaps performed.
     */
    int moveTo(PhysQubit &a, PhysQubit dest, SwapEmitter emit);

    /** Total swaps emitted so far. */
    int64_t totalSwaps() const { return total_swaps_; }

  private:
    const Topology &topo_;
    Layout &layout_;
    int64_t total_swaps_ = 0;
    std::vector<PhysQubit> route_; ///< reused pathInto scratch
};

} // namespace square

#endif // SQUARE_ROUTE_SWAP_ROUTER_H
