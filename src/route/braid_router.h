/**
 * @file
 * Fault-tolerant communication: braid-space routing.
 *
 * Surface-code logical qubits occupy tiles on a 2-D grid; the space
 * between tiles forms routing channels.  A logical CNOT claims a braid:
 * a path through the channels connecting the two operand tiles, held for
 * a fixed braid window.  Braids may extend to any length in constant
 * time but may NOT cross an active braid (Sec. II-C1), so congestion -
 * not distance - is the communication cost.  The router:
 *
 *  1. tries the two L-shaped channel paths between the operands.  The
 *     horizontal-first one leaves a through the channel cell north of
 *     it, runs along that channel row to the channel column west of b
 *     and along that column to the cell west of b; the vertical-first
 *     one leaves a through the cell west of it, runs along that column
 *     to the channel row north of b and along that row to the cell
 *     north of b;
 *  2. falls back to a BFS through the channel cells free during the
 *     braid window, inside the operands' bounding box widened by 4
 *     sites: it starts from the free cells bordering a, expands each
 *     cell N, S, W, E, and stops at the first cell bordering b that it
 *     queues;
 *  3. when no route exists, stalls the gate until the latest end of a
 *     reservation blocking either L path (at least one cycle) and
 *     tries again.
 *
 * Every attempt whose horizontal-first path is blocked counts one
 * conflict, whichever step then succeeds.  A channel cell remembers
 * only its last eight reservations.  The conflicts-per-gate ratio is
 * the S communication factor CER uses on FT machines (Sec. IV-D).
 *
 * Geometry: a site (x, y) of a W x H lattice maps to cell
 * (2x+1, 2y+1) of a (2W+1) x (2H+1) cell grid; cells with an even
 * coordinate are channels.
 *
 * reserve() is on the per-gate hot path; the candidate-path and BFS
 * buffers are reused members so steady-state routing is allocation-free.
 * A cell probe first compares t with the cell's busy_until_ bound and
 * only then tests all eight ring slots for overlap, without a branch:
 * on the largest braid programs over nine in ten of the probes that
 * reach a ring find no overlap, so an early exit would mostly
 * mispredict.  A slot not written since its ring was cleared holds
 * [0, 0), which overlaps no window starting at t >= 0; reserve()
 * therefore requires ready >= 0.
 *
 * The per-cell rings and BFS parents are never initialised in bulk, so
 * a compile touches only the cells its braids reach, however large the
 * machine.  busy_until_ is 0 until a cell's first claim (a claim sets
 * it to at least t + dur > 0), every ring read sits behind the
 * t < busy_until_ filter, and the first claim clears the ring; a BFS
 * parent is written when its cell is queued, before any read.
 *
 * An L path is never written out: it is two strided runs of cell ids,
 * probed, claimed and scanned for the stall time in closed form.  The
 * detour BFS queues each cell with its coordinates at full int width
 * (131 073 cell columns on a 65536 x 1 machine rule out 16-bit
 * packing), so it never divides to recover them and tests only the
 * bound a move can cross.
 */

#ifndef SQUARE_ROUTE_BRAID_ROUTER_H
#define SQUARE_ROUTE_BRAID_ROUTER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/topology.h"

namespace square {

/** Routes braids through the channel grid of an FT machine. */
class BraidRouter
{
  public:
    /** Outcome of one braid reservation. */
    struct Reservation
    {
        int64_t start = 0;  ///< time the braid window begins
        int conflicts = 0;  ///< blocked attempts before success
        int pathCells = 0;  ///< channel cells claimed
    };

    explicit BraidRouter(const LatticeTopology &topo);

    /**
     * Reserve a braid between sites @p a and @p b starting no earlier
     * than @p ready (>= 0), holding its path for @p dur cycles.
     */
    Reservation reserve(PhysQubit a, PhysQubit b, int64_t ready, int dur);

    /**
     * Sum of claimed path lengths (for average braid length stats; the
     * scheduler's SchedStats counts the braids and their conflicts).
     */
    int64_t totalPathCells() const { return total_path_cells_; }

  private:
    struct Interval
    {
        int64_t start;
        int64_t end; // exclusive
    };

    /**
     * Fixed-capacity ring of the last kCapacity reservations of a
     * channel cell; a slot not written since clear() holds [0, 0).
     * Trivial, so the grid's rings start uninitialised.
     */
    struct CellOccupancy
    {
        static constexpr int kCapacity = 8;
        Interval slots[kCapacity];
        int head;

        void
        clear()
        {
            for (Interval &iv : slots)
                iv = {0, 0};
            head = 0;
        }

        void
        add(const Interval &iv)
        {
            slots[head] = iv;
            head = (head + 1) % kCapacity;
        }

        /** True when [t, t+dur) overlaps a recorded reservation (t >= 0). */
        bool busy(int64_t t, int dur) const;

        /**
         * Latest end of a reservation overlapping [t, t+dur), or 0
         * (t >= 0).
         */
        int64_t release(int64_t t, int dur) const;
    };

    /** A queued detour-BFS cell and its coordinates. */
    struct BfsNode
    {
        int id;
        int x;
        int y;
    };

    /**
     * An L-shaped channel path: a run of len1 cells from @c first in
     * steps of step1 (ending on the corner), then len2 more cells in
     * steps of step2.  The runs share no cell.
     */
    struct LPath
    {
        int first;
        int step1;
        int len1;
        int step2;
        int len2;

        int size() const { return len1 + len2; }
    };

    int cellId(int cx, int cy) const { return cy * cells_w_ + cx; }

    /** The horizontal-first or vertical-first L path from a to b. */
    LPath lPath(PhysQubit a, PhysQubit b, bool horizontal_first) const;

    /**
     * Call fn(id) on the cells of @p path in order; stops and returns
     * false at the first call that returns false.
     */
    template <typename Fn>
    static bool everyCell(const LPath &path, Fn &&fn);

    /**
     * BFS through channel cells free during [t, t+dur), written into
     * @p out; leaves @p out empty when no route exists.
     */
    void searchPathInto(PhysQubit a, PhysQubit b, int64_t t, int dur,
                        std::vector<int> &out);

    /**
     * True when channel cell @p id is busy during [t, t+dur).  A cell
     * whose every reservation ends by t (t >= busy_until_) is free
     * without a scan of its ring.
     */
    bool
    cellBusy(int id, int64_t t, int dur) const
    {
        return t < busy_until_[static_cast<size_t>(id)] &&
               cells_[static_cast<size_t>(id)].busy(t, dur);
    }

    /** True when every cell of @p path is free during [t, t+dur). */
    bool pathClear(const LPath &path, int64_t t, int dur) const;

    /**
     * Stall target when no route exists at t: the latest end of any
     * reservation blocking L path @p h or @p v, and at least t + 1.
     */
    int64_t stallUntil(const LPath &h, const LPath &v, int64_t t,
                       int dur) const;

    /** Record [t, t+dur) on channel cell @p id. */
    void claimCell(int id, int64_t t, int dur);

    const LatticeTopology &topo_;
    int cells_w_;
    int cells_h_;
    // per cell, its reservation ring: uninitialised until first claimed
    std::unique_ptr<CellOccupancy[]> cells_;
    // per cell, an upper bound of every reservation end it recorded
    // (0: never claimed)
    std::vector<int64_t> busy_until_;
    std::vector<int64_t> bfs_mark_; // visit stamps for searchPathInto
    // per cell, its BFS parent: uninitialised until the cell is queued
    std::unique_ptr<int[]> bfs_parent_;
    // BFS frontier storage, one slot per cell (a cell is queued at most
    // once per search); left uninitialised until written
    std::unique_ptr<BfsNode[]> bfs_queue_;
    std::vector<int> detour_;       // reused BFS result path
    int64_t bfs_stamp_ = 0;
    int64_t total_path_cells_ = 0;
};

} // namespace square

#endif // SQUARE_ROUTE_BRAID_ROUTER_H
