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
 *  1. tries the two L-shaped channel paths between the operands,
 *     horizontal-first, then vertical-first;
 *  2. falls back to a BFS through free channel cells;
 *  3. when no route exists, stalls the gate until a blocking braid
 *     releases its cells, counting one conflict per stall.
 *
 * The conflicts-per-gate ratio is the S communication factor CER uses
 * on FT machines (Sec. IV-D).
 *
 * Geometry: a site (x, y) of a W x H lattice maps to cell
 * (2x+1, 2y+1) of a (2W+1) x (2H+1) cell grid; cells with an even
 * coordinate are channels.
 *
 * reserve() is on the per-gate hot path; the candidate-path and BFS
 * buffers are reused members so steady-state routing is allocation-free.
 */

#ifndef SQUARE_ROUTE_BRAID_ROUTER_H
#define SQUARE_ROUTE_BRAID_ROUTER_H

#include <cstdint>
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
     * than @p ready, holding its path for @p dur cycles.
     */
    Reservation reserve(PhysQubit a, PhysQubit b, int64_t ready, int dur);

    /** Total conflicts (blocked attempts) across all reservations. */
    int64_t totalConflicts() const { return total_conflicts_; }

    /** Total braids routed. */
    int64_t totalBraids() const { return total_braids_; }

    /** Sum of claimed path lengths (for average braid length stats). */
    int64_t totalPathCells() const { return total_path_cells_; }

  private:
    struct Interval
    {
        int64_t start = 0;
        int64_t end = 0; // exclusive
    };

    /** Fixed-capacity ring of recent reservations per channel cell. */
    struct CellOccupancy
    {
        static constexpr int kCapacity = 8;
        Interval slots[kCapacity];
        int count = 0;
        int head = 0;

        void
        add(const Interval &iv)
        {
            slots[head] = iv;
            head = (head + 1) % kCapacity;
            if (count < kCapacity)
                ++count;
        }

        /** True when [t, t+dur) overlaps a recorded reservation. */
        bool busy(int64_t t, int dur) const;

        /** Latest end of a reservation overlapping [t, t+dur), or 0. */
        int64_t release(int64_t t, int dur) const;
    };

    int cellId(int cx, int cy) const { return cy * cells_w_ + cx; }
    bool isChannel(int cx, int cy) const { return cx % 2 == 0 || cy % 2 == 0; }

    /**
     * L-shaped channel path, horizontal-first or vertical-first,
     * written into @p out (replacing its contents).
     */
    void directPathInto(PhysQubit a, PhysQubit b, bool horizontal_first,
                        std::vector<int> &out) const;

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
    bool pathClear(const std::vector<int> &path, int64_t t, int dur) const;

    /**
     * Stall target when no route exists at t: the latest end of any
     * reservation blocking either L path, and at least t + 1.
     */
    int64_t stallUntil(int64_t t, int dur) const;

    void claim(const std::vector<int> &path, int64_t t, int dur);

    const LatticeTopology &topo_;
    int cells_w_;
    int cells_h_;
    std::vector<CellOccupancy> cells_;
    // per cell, an upper bound of every reservation end it recorded
    std::vector<int64_t> busy_until_;
    std::vector<int64_t> bfs_mark_; // visit stamps for searchPathInto
    std::vector<int> bfs_parent_;
    std::vector<int> bfs_queue_;    // reused BFS frontier storage
    std::vector<int> path_h_;       // reused horizontal-first L-path
    std::vector<int> path_v_;       // vertical-first L-path, built lazily
    std::vector<int> path_scratch_; // reused BFS result path
    int64_t bfs_stamp_ = 0;
    int64_t total_conflicts_ = 0;
    int64_t total_braids_ = 0;
    int64_t total_path_cells_ = 0;
};

} // namespace square

#endif // SQUARE_ROUTE_BRAID_ROUTER_H
