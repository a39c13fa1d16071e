/**
 * @file
 * Qubit allocation: LIFO baseline and Locality-Aware Allocation (Alg. 1).
 *
 * LAA scores candidate sites for each requested ancilla by balancing the
 * paper's three considerations (Sec. III-A1 / IV-C):
 *
 *  - communication: mean distance from the candidate to the sites of the
 *    qubits the ancilla will interact with (from the static interaction
 *    analysis, the get_interact_qubits() lookahead);
 *  - serialization: reusing a recently-busy qubit adds a false data
 *    dependency, so a candidate whose site clock is ahead of the
 *    requesting module's ready time is penalized;
 *  - area expansion: claiming a brand-new site grows the active region,
 *    lengthening future swap chains/braids, so fresh candidates pay for
 *    their distance from the active centroid.
 *
 * closest_qubit_in_heap() and closest_qubit_new() are realized as a
 * bounded sweep outward from an anchor site, scoring up to candidateCap
 * sites of each class and taking the minimum.  The sweep has one scoring
 * step - candidate classification, score arithmetic, the visit budget
 * and the admissible ring early exit - fed by one of two traversals that
 * visit sites in the same order:
 *
 *  - on lattice machines (the single hottest loop in the compiler), a
 *    ring walk that enumerates each Manhattan ring around the start in
 *    the closed-form order a W, E, N, S breadth-first search reaches it,
 *    with no queue, visit marks or per-site division;
 *  - on any other topology, that breadth-first search over the virtual
 *    Topology interface.
 *
 * The AllocatorParity tests pin the two traversals to bit-identical
 * decisions on lattice geometry.
 *
 * chooseSite() runs once per allocated ancilla, so the per-ancilla
 * anchor list and anchor coordinates (and, for the generic search, the
 * frontier and visit marks) are reused member buffers, sized before the
 * first allocation (reserveAnchors): allocation performs no heap
 * allocation.  When there are anchors, the sweep never leaves their
 * bounding box (inflated by cfg.anchorBoxMargin), which caps the
 * per-allocation visit cost on workloads whose free sites are far from
 * the anchors.
 */

#ifndef SQUARE_CORE_ALLOCATOR_H
#define SQUARE_CORE_ALLOCATOR_H

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "arch/layout.h"
#include "arch/machine.h"
#include "core/heap.h"
#include "core/policy.h"
#include "ir/analysis.h"
#include "schedule/scheduler.h"

namespace square {

/**
 * The sites of a W x H lattice in center-out order - by distance from
 * the lattice's centroid ((W-1)/2, (H-1)/2), ties by site id - one at a
 * time.  That is the order a stable sort of every site by squared
 * distance from the centroid gives: the squared distance is exactly
 * key / 4 with the integer key (2x-W+1)^2 + (2y-H+1)^2.  Instead of
 * sorting, a best-first walk pops the least (key, site) from a frontier
 * seeded with the central sites.  Every other site has one parent, a
 * step toward the centre - in x, or in y within the central columns -
 * with a smaller key, and enters the frontier when its parent is
 * popped.  Producing k sites costs O(k log k) on any machine size.
 */
class CenterOutWalk
{
  public:
    CenterOutWalk() = default;
    CenterOutWalk(int width, int height);

    /** The next site in center-out order; kNoQubit after the last. */
    PhysQubit next();

  private:
    void push(int x, int y);

    int width_ = 0;
    int height_ = 0;
    /** Min-heap of (key, site) of the sites whose parent was popped. */
    std::vector<std::pair<int64_t, PhysQubit>> frontier_;
};

/** Chooses sites for ancilla (and primary) qubit allocations. */
class Allocator
{
  public:
    Allocator(const SquareConfig &cfg, const Machine &machine,
              Layout &layout, const GateScheduler &sched,
              AncillaHeap &heap);

    /**
     * Place the program's primary qubits on a compact block of sites
     * near the machine center.
     */
    std::vector<LogicalQubit> allocPrimaries(int n);

    /**
     * Allocate the @p n ancilla of one module invocation into
     * @p out[0..n), which the caller provides (an arena slice or a
     * reused scratch buffer; no allocation happens here).
     *
     * @param st      static analysis of the invoked module (interaction
     *                sets per ancilla)
     * @param args    logical qubits bound to the module's parameters
     * @param t_ready invocation ready time (max clock of the args)
     */
    void allocAncillaInto(int n, const ModuleStats &st,
                          std::span<const LogicalQubit> args,
                          int64_t t_ready, LogicalQubit *out);

    /** Allocating wrapper over allocAncillaInto (tests/cold paths). */
    std::vector<LogicalQubit> allocAncilla(int n, const ModuleStats &st,
                                           std::span<const LogicalQubit> args,
                                           int64_t t_ready);

    /**
     * Reserve the anchor scratch for allocations anchored on up to
     * @p n sites (the program's widest parameter list), so no sweep
     * grows it.
     */
    void reserveAnchors(size_t n);

    /**
     * Sites one candidate sweep may visit: max(256, 32 x
     * candidateCap).  On large machines with few heap sites the sweep
     * would otherwise flood the whole machine on every allocation.
     */
    static int
    visitBudget(const SquareConfig &cfg)
    {
        return std::max(256, 32 * cfg.candidateCap);
    }

  private:
    /** Next never-used site in center-out order (fatal when full). */
    PhysQubit nextFreshSite();

    /** Locality-scored choice for one ancilla. */
    PhysQubit chooseSite(const std::vector<PhysQubit> &anchor_sites,
                         int64_t t_ready);

    /** The candidate sweep (Alg. 1) as a ring walk on a lattice. */
    PhysQubit ringSweep(const std::vector<PhysQubit> &anchor_sites,
                        int64_t t_ready);

    /** The candidate sweep as a breadth-first search on any topology. */
    PhysQubit bfsSweep(const std::vector<PhysQubit> &anchor_sites,
                       int64_t t_ready);

    /**
     * Take the sweep's pick out of the heap or the fresh pool; when the
     * sweep found none (@p site is kNoQubit), fall back to any reclaimed
     * or fresh site on the machine.
     */
    PhysQubit claim(PhysQubit site, bool in_heap);

    const SquareConfig &cfg_;
    const Machine &machine_;
    Layout &layout_;
    const GateScheduler &sched_;
    AncillaHeap &heap_;

    /** Non-null when the machine topology is a lattice (ring walk). */
    const LatticeTopology *lattice_ = nullptr;

    /**
     * Sites ordered by distance from the machine center: on a lattice
     * the prefix produced so far by center_walk_, extended as the
     * fresh cursor reaches its end; on any other topology every site,
     * stably sorted by the distance of its coords() from their mean.
     */
    std::vector<PhysQubit> center_order_;
    size_t fresh_cursor_ = 0;
    CenterOutWalk center_walk_;

    // scratch for the generic breadth-first sweep (empty on lattices):
    // visit stamps make the marks reusable without clearing, and the
    // frontier is a flat vector consumed by cursor.
    std::vector<int64_t> visit_mark_;
    int64_t visit_stamp_ = 0;
    std::vector<PhysQubit> bfs_queue_;
    std::vector<PhysQubit> anchor_scratch_;
    // anchor coordinates, precomputed once per ring walk so the
    // per-candidate communication score is pure integer arithmetic
    std::vector<int> anchor_x_;
    std::vector<int> anchor_y_;
};

} // namespace square

#endif // SQUARE_CORE_ALLOCATOR_H
