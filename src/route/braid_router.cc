#include "route/braid_router.h"

#include <algorithm>

#include "common/logging.h"

namespace square {

bool
BraidRouter::CellOccupancy::busy(int64_t t, int dur) const
{
    for (int i = 0; i < count; ++i) {
        if (slots[i].start < t + dur && t < slots[i].end)
            return true;
    }
    return false;
}

int64_t
BraidRouter::CellOccupancy::release(int64_t t, int dur) const
{
    int64_t out = 0;
    for (int i = 0; i < count; ++i) {
        if (slots[i].start < t + dur && t < slots[i].end)
            out = std::max(out, slots[i].end);
    }
    return out;
}

BraidRouter::BraidRouter(const LatticeTopology &topo)
    : topo_(topo),
      cells_w_(2 * topo.width() + 1),
      cells_h_(2 * topo.height() + 1),
      cells_(static_cast<size_t>(cells_w_) * cells_h_),
      busy_until_(cells_.size(), 0),
      bfs_mark_(cells_.size(), 0),
      bfs_parent_(cells_.size(), -1)
{
    bfs_queue_.reserve(cells_.size());
}

void
BraidRouter::directPathInto(PhysQubit a, PhysQubit b, bool horizontal_first,
                            std::vector<int> &out) const
{
    const int ax = topo_.xOf(a), ay = topo_.yOf(a);
    const int bx = topo_.xOf(b), by = topo_.yOf(b);
    out.clear();

    auto push_unique = [&](int cx, int cy) {
        SQ_ASSERT(isChannel(cx, cy), "direct path entered a site tile");
        int id = cellId(cx, cy);
        if (out.empty() || out.back() != id)
            out.push_back(id);
    };

    if (horizontal_first) {
        // Exit north of a, run along channel row 2*ay, descend along
        // channel column 2*bx, stop west of b.
        const int row = 2 * ay;
        const int col = 2 * bx;
        int cx = 2 * ax + 1;
        push_unique(cx, row);
        int step = (col > cx) ? 1 : -1;
        while (cx != col) {
            cx += step;
            push_unique(cx, row);
        }
        int cy = row;
        const int stop = 2 * by + 1;
        int vstep = (stop > cy) ? 1 : -1;
        while (cy != stop) {
            cy += vstep;
            push_unique(col, cy);
        }
    } else {
        // Exit west of a, run along channel column 2*ax, cross along
        // channel row 2*by, stop north of b.
        const int col = 2 * ax;
        const int row = 2 * by;
        int cy = 2 * ay + 1;
        push_unique(col, cy);
        int step = (row > cy) ? 1 : -1;
        while (cy != row) {
            cy += step;
            push_unique(col, cy);
        }
        int cx = col;
        const int stop = 2 * bx + 1;
        int hstep = (stop > cx) ? 1 : -1;
        while (cx != stop) {
            cx += hstep;
            push_unique(cx, row);
        }
    }
}

bool
BraidRouter::pathClear(const std::vector<int> &path, int64_t t,
                       int dur) const
{
    for (int id : path) {
        if (cellBusy(id, t, dur))
            return false;
    }
    return true;
}

int64_t
BraidRouter::stallUntil(int64_t t, int dur) const
{
    int64_t until = t + 1;
    for (const std::vector<int> *path : {&path_h_, &path_v_}) {
        for (int id : *path) {
            if (t < busy_until_[static_cast<size_t>(id)])
                until = std::max(
                    until, cells_[static_cast<size_t>(id)].release(t, dur));
        }
    }
    return until;
}

void
BraidRouter::searchPathInto(PhysQubit a, PhysQubit b, int64_t t, int dur,
                            std::vector<int> &out)
{
    // BFS over free channel cells inside a bounding box around the
    // operands (congestion is local; a global detour is unrealistic
    // for a braid anyway).
    const int margin = 4;
    const int ax = 2 * topo_.xOf(a) + 1, ay = 2 * topo_.yOf(a) + 1;
    const int bx = 2 * topo_.xOf(b) + 1, by = 2 * topo_.yOf(b) + 1;
    const int x_lo = std::max(0, std::min(ax, bx) - 2 * margin);
    const int x_hi = std::min(cells_w_ - 1, std::max(ax, bx) + 2 * margin);
    const int y_lo = std::max(0, std::min(ay, by) - 2 * margin);
    const int y_hi = std::min(cells_h_ - 1, std::max(ay, by) + 2 * margin);

    out.clear();
    ++bfs_stamp_;
    bfs_queue_.clear();
    size_t q_head = 0;

    // Enqueue a free unvisited channel cell; true when it borders the
    // target tile.  FIFO order dequeues goals in the order they are
    // enqueued, so the first goal enqueued ends the search with the
    // same parent chain a dequeue-time test would find.
    auto try_visit = [&](int cx, int cy, int parent) -> bool {
        if (cx < x_lo || cx > x_hi || cy < y_lo || cy > y_hi)
            return false;
        const int id = cellId(cx, cy);
        if (bfs_mark_[static_cast<size_t>(id)] == bfs_stamp_ ||
            cellBusy(id, t, dur))
            return false;
        bfs_mark_[static_cast<size_t>(id)] = bfs_stamp_;
        bfs_parent_[static_cast<size_t>(id)] = parent;
        bfs_queue_.push_back(id);
        return (std::abs(cx - bx) == 1 && cy == by) ||
               (std::abs(cy - by) == 1 && cx == bx);
    };
    auto found = [&]() {
        for (int cur = bfs_queue_.back(); cur != -1;
             cur = bfs_parent_[static_cast<size_t>(cur)]) {
            out.push_back(cur);
        }
        std::reverse(out.begin(), out.end());
    };

    // Seed with the free channel cells bordering the source tile (N, S,
    // W, E; every one is a channel cell).
    if (try_visit(ax, ay - 1, -1) || try_visit(ax, ay + 1, -1) ||
        try_visit(ax - 1, ay, -1) || try_visit(ax + 1, ay, -1))
        return found();

    // Expand in N, S, W, E order, skipping site tiles: a horizontal
    // channel segment (odd x) only has channel neighbours west and
    // east, a vertical one (odd y) only north and south.
    while (q_head < bfs_queue_.size()) {
        const int id = bfs_queue_[q_head++];
        const int cx = id % cells_w_;
        const int cy = id / cells_w_;
        if (cx % 2 == 0 &&
            (try_visit(cx, cy - 1, id) || try_visit(cx, cy + 1, id)))
            return found();
        if (cy % 2 == 0 &&
            (try_visit(cx - 1, cy, id) || try_visit(cx + 1, cy, id)))
            return found();
    }
}

void
BraidRouter::claim(const std::vector<int> &path, int64_t t, int dur)
{
    for (int id : path) {
        cells_[static_cast<size_t>(id)].add({t, t + dur});
        int64_t &until = busy_until_[static_cast<size_t>(id)];
        until = std::max(until, t + dur);
    }
    total_path_cells_ += static_cast<int64_t>(path.size());
}

BraidRouter::Reservation
BraidRouter::reserve(PhysQubit a, PhysQubit b, int64_t ready, int dur)
{
    SQ_ASSERT(a != b, "braid endpoints must differ");
    SQ_ASSERT(dur > 0, "braid duration must be positive");

    Reservation res;
    int64_t t = ready;
    constexpr int kMaxStalls = 4096;

    // The L-shaped candidates depend only on the endpoints; hoist them
    // out of the stall loop (only their availability changes as t
    // advances).  The horizontal-first one usually wins, so the
    // vertical-first one is built only once it is needed.
    directPathInto(a, b, true, path_h_);
    path_v_.clear();

    auto grant = [&](const std::vector<int> &path) {
        claim(path, t, dur);
        res.start = t;
        res.pathCells = static_cast<int>(path.size());
        ++total_braids_;
        return res;
    };

    for (int attempt = 0; attempt < kMaxStalls; ++attempt) {
        if (pathClear(path_h_, t, dur))
            return grant(path_h_);
        ++res.conflicts;
        ++total_conflicts_;

        if (path_v_.empty())
            directPathInto(a, b, false, path_v_);
        if (pathClear(path_v_, t, dur))
            return grant(path_v_);

        searchPathInto(a, b, t, dur, path_scratch_);
        if (!path_scratch_.empty())
            return grant(path_scratch_);

        // No route at t: stall until the latest braid blocking either L
        // path releases its cells.
        t = stallUntil(t, dur);
    }
    panic("braid router livelock between sites ", a, " and ", b);
}

} // namespace square
