/**
 * @file
 * ASAP gate scheduling with communication resolution.
 *
 * The GateScheduler is the back half of the SQUARE tool flow (Fig. 4):
 * it receives logical-qubit gates from the executor, resolves
 * connectivity per the machine's communication model (swap chains on
 * NISQ machines, braids on FT machines), optionally lowers Toffoli to
 * the standard 15-gate Clifford+T circuit, and assigns start times using
 * per-site availability clocks (gates schedule at the earliest time all
 * operand sites are free - data dependencies resolve naturally because
 * a qubit's clock advances with every gate touching it).
 *
 * A routing swap is one hop step: the SwapRouter picks the hops of a
 * chain and hands each to hop(), which schedules the swap (both site
 * clocks, the makespan, SchedStats::swaps and, only when a sink is
 * attached, the TimedGate, built before the layout changes), exchanges
 * the two layout entries and restores the ancilla heap's membership of
 * both sites - with no type-erased or virtual call in between.
 */

#ifndef SQUARE_SCHEDULE_SCHEDULER_H
#define SQUARE_SCHEDULE_SCHEDULER_H

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "arch/layout.h"
#include "arch/machine.h"
#include "core/heap.h"
#include "route/braid_router.h"
#include "route/swap_router.h"
#include "schedule/trace.h"

namespace square {

/** Aggregate gate/communication counters for one compilation. */
struct SchedStats
{
    int64_t totalGates = 0;  ///< scheduled gates, excluding swaps
    int64_t oneQubitGates = 0;
    int64_t twoQubitGates = 0;
    int64_t tGates = 0;      ///< subset of oneQubitGates that are T/Tdg
    int64_t toffoliGates = 0; ///< native (undecomposed) Toffolis
    int64_t swaps = 0;       ///< routing swaps + program SWAP gates
    int64_t routedGates = 0; ///< two-qubit gates that needed routing
    int64_t braidConflicts = 0;
    int64_t braids = 0;
};

/** Schedules gates onto a machine, resolving communication. */
class GateScheduler
{
  public:
    /**
     * @param machine target machine (must outlive the scheduler)
     * @param layout  logical-to-site mapping, mutated by swap routing
     * @param heap    the ancilla heap over @p layout's sites, kept
     *                current across routing swaps
     * @param sink    consumer of the emitted schedule, or nullptr: then
     *                issueAt() and hop() build no TimedGate at all
     */
    GateScheduler(const Machine &machine, Layout &layout,
                  AncillaHeap &heap, TraceSink *sink);

    /** Schedule one logical gate (routing + decomposition as needed). */
    void apply(GateKind kind, std::span<const LogicalQubit> operands);

    /**
     * Occupy @p site for @p duration cycles with non-gate work
     * (measurement + reset); advances its clock and the makespan.
     */
    void occupy(PhysQubit site, int64_t duration);

    /** Availability clock of a site (end of its last gate). */
    int64_t
    siteClock(PhysQubit site) const
    {
        return clock_.at(static_cast<size_t>(site));
    }

    /** Availability clock of a live logical qubit. */
    int64_t
    logicalClock(LogicalQubit q) const
    {
        return siteClock(layout_.siteOf(q));
    }

    /** Current makespan (max clock over all sites); the circuit depth. */
    int64_t makespan() const { return makespan_; }

    const SchedStats &stats() const { return stats_; }

    /**
     * The communication factor S of the CER cost model: average swaps
     * per two-qubit gate (NISQ) or braid conflicts per braid (FT);
     * zero on all-to-all machines.
     */
    double commFactor() const;

    /** Average braid path length in channel cells (FT diagnostics). */
    double avgBraidLength() const;

  private:
    void issue(GateKind kind, const PhysQubit *sites, int arity);
    void issueAt(GateKind kind, const PhysQubit *sites, int arity,
                 int64_t start);
    void applyTwoQubit(GateKind kind, LogicalQubit a, LogicalQubit b);
    void applyToffoliDecomposed(LogicalQubit c0, LogicalQubit c1,
                                LogicalQubit tgt);
    void gatherForMacro(LogicalQubit c0, LogicalQubit c1, LogicalQubit tgt);
    /** One routing swap between adjacent sites (see the file comment). */
    void hop(PhysQubit from, PhysQubit to);

    const Machine &machine_;
    Layout &layout_;
    AncillaHeap &heap_;
    TraceSink *const sink_;
    /** Per-kind durations, precomputed so issueAt does no switch work. */
    int dur_table_[static_cast<size_t>(GateKind::NumKinds)] = {};
    std::vector<int64_t> clock_;
    int64_t makespan_ = 0;
    SchedStats stats_;
    std::optional<SwapRouter> swap_router_;
    std::unique_ptr<BraidRouter> braid_router_;
};

} // namespace square

#endif // SQUARE_SCHEDULE_SCHEDULER_H
