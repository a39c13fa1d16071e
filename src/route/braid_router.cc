#include "route/braid_router.h"

#include <algorithm>
#include <cstdlib>
#include <type_traits>

#include "common/logging.h"

namespace square {

// Both scans test every slot: an unwritten [0, 0) slot overlaps no
// window at t >= 0, and a scan without an early exit has no branch to
// mispredict on the rare overlap.
bool
BraidRouter::CellOccupancy::busy(int64_t t, int dur) const
{
    const int64_t end = t + dur;
    bool overlap = false;
    for (const Interval &iv : slots)
        overlap |= (iv.start < end) & (t < iv.end);
    return overlap;
}

int64_t
BraidRouter::CellOccupancy::release(int64_t t, int dur) const
{
    const int64_t end = t + dur;
    int64_t out = 0;
    for (const Interval &iv : slots) {
        const bool overlap = (iv.start < end) & (t < iv.end);
        out = std::max(out, overlap ? iv.end : 0);
    }
    return out;
}

BraidRouter::BraidRouter(const LatticeTopology &topo)
    : topo_(topo),
      cells_w_(2 * topo.width() + 1),
      cells_h_(2 * topo.height() + 1),
      busy_until_(static_cast<size_t>(cells_w_) * cells_h_, 0),
      bfs_mark_(busy_until_.size(), 0)
{
    static_assert(std::is_trivially_default_constructible_v<CellOccupancy>,
                  "rings stay uninitialised until their cell's first claim");
    const size_t cells = busy_until_.size();
    cells_ = std::make_unique_for_overwrite<CellOccupancy[]>(cells);
    bfs_parent_ = std::make_unique_for_overwrite<int[]>(cells);
    bfs_queue_ = std::make_unique_for_overwrite<BfsNode[]>(cells);
}

BraidRouter::LPath
BraidRouter::lPath(PhysQubit a, PhysQubit b, bool horizontal_first) const
{
    const int ax = topo_.xOf(a), ay = topo_.yOf(a);
    const int bx = topo_.xOf(b), by = topo_.yOf(b);
    LPath path;
    if (horizontal_first) {
        // North of a along channel row 2*ay to channel column 2*bx,
        // then along that column to west of b.
        const int row = 2 * ay, x0 = 2 * ax + 1, col = 2 * bx;
        const int y1 = 2 * by + 1;
        path.first = cellId(x0, row);
        path.step1 = col > x0 ? 1 : -1;
        path.len1 = std::abs(col - x0) + 1;
        path.step2 = y1 > row ? cells_w_ : -cells_w_;
        path.len2 = std::abs(y1 - row);
    } else {
        // West of a along channel column 2*ax to channel row 2*by,
        // then along that row to north of b.
        const int col = 2 * ax, y0 = 2 * ay + 1, row = 2 * by;
        const int x1 = 2 * bx + 1;
        path.first = cellId(col, y0);
        path.step1 = row > y0 ? cells_w_ : -cells_w_;
        path.len1 = std::abs(row - y0) + 1;
        path.step2 = x1 > col ? 1 : -1;
        path.len2 = std::abs(x1 - col);
    }
    return path;
}

template <typename Fn>
bool
BraidRouter::everyCell(const LPath &path, Fn &&fn)
{
    int id = path.first;
    for (int i = 0; i < path.len1; ++i, id += path.step1) {
        if (!fn(id))
            return false;
    }
    id -= path.step1; // back on the corner
    for (int i = 0; i < path.len2; ++i) {
        if (!fn(id += path.step2))
            return false;
    }
    return true;
}

bool
BraidRouter::pathClear(const LPath &path, int64_t t, int dur) const
{
    return everyCell(path, [&](int id) { return !cellBusy(id, t, dur); });
}

void
BraidRouter::claimCell(int id, int64_t t, int dur)
{
    CellOccupancy &ring = cells_[static_cast<size_t>(id)];
    int64_t &until = busy_until_[static_cast<size_t>(id)];
    if (until == 0)
        ring.clear(); // first claim
    ring.add({t, t + dur});
    until = std::max(until, t + dur);
}

int64_t
BraidRouter::stallUntil(const LPath &h, const LPath &v, int64_t t,
                        int dur) const
{
    int64_t until = t + 1;
    auto latest_release = [&](int id) {
        if (t < busy_until_[static_cast<size_t>(id)])
            until = std::max(
                until, cells_[static_cast<size_t>(id)].release(t, dur));
        return true;
    };
    everyCell(h, latest_release);
    everyCell(v, latest_release);
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
    // The channel cells bordering the target tile: N, S, W, E.
    const int goal_n = cellId(bx, by - 1), goal_s = cellId(bx, by + 1);
    const int goal_w = cellId(bx - 1, by), goal_e = cellId(bx + 1, by);

    out.clear();
    ++bfs_stamp_;
    BfsNode *const queue = bfs_queue_.get();
    int q_tail = 0;

    // Enqueue free unvisited channel cell @p id at (x, y), which the
    // caller has checked lies in the box; true when it borders the
    // target tile.  FIFO order dequeues goals in the order they are
    // enqueued, so the first goal enqueued ends the search with the
    // same parent chain a dequeue-time test would find.
    auto visit = [&](int id, int x, int y, int parent) -> bool {
        const size_t i = static_cast<size_t>(id);
        if (bfs_mark_[i] == bfs_stamp_ || cellBusy(id, t, dur))
            return false;
        bfs_mark_[i] = bfs_stamp_;
        bfs_parent_[i] = parent;
        queue[q_tail++] = {id, x, y};
        return id == goal_n || id == goal_s || id == goal_w || id == goal_e;
    };
    auto found = [&]() {
        for (int cur = queue[q_tail - 1].id; cur != -1;
             cur = bfs_parent_[static_cast<size_t>(cur)]) {
            out.push_back(cur);
        }
        std::reverse(out.begin(), out.end());
    };

    // Seed with the free channel cells bordering the source tile (N, S,
    // W, E; every one is a channel cell, and the box holds all four).
    if (visit(cellId(ax, ay - 1), ax, ay - 1, -1) ||
        visit(cellId(ax, ay + 1), ax, ay + 1, -1) ||
        visit(cellId(ax - 1, ay), ax - 1, ay, -1) ||
        visit(cellId(ax + 1, ay), ax + 1, ay, -1))
        return found();

    // Expand in N, S, W, E order, skipping site tiles: a horizontal
    // channel segment (odd x) only has channel neighbours west and
    // east, a vertical one (odd y) only north and south.  A vertical
    // move can only leave the box through its y bounds, a horizontal
    // one only through its x bounds.
    for (int q_head = 0; q_head < q_tail; ++q_head) {
        const BfsNode n = queue[q_head];
        if (n.x % 2 == 0) {
            if (n.y > y_lo && visit(n.id - cells_w_, n.x, n.y - 1, n.id))
                return found();
            if (n.y < y_hi && visit(n.id + cells_w_, n.x, n.y + 1, n.id))
                return found();
        }
        if (n.y % 2 == 0) {
            if (n.x > x_lo && visit(n.id - 1, n.x - 1, n.y, n.id))
                return found();
            if (n.x < x_hi && visit(n.id + 1, n.x + 1, n.y, n.id))
                return found();
        }
    }
}

BraidRouter::Reservation
BraidRouter::reserve(PhysQubit a, PhysQubit b, int64_t ready, int dur)
{
    SQ_ASSERT(a != b, "braid endpoints must differ");
    SQ_ASSERT(dur > 0, "braid duration must be positive");
    SQ_ASSERT(ready >= 0, "braid ready time must not be negative");

    Reservation res;
    int64_t t = ready;
    constexpr int kMaxStalls = 4096;

    // The L-shaped candidates depend only on the endpoints; only their
    // availability changes as t advances.
    const LPath h = lPath(a, b, true);
    const LPath v = lPath(a, b, false);

    auto grant = [&](int cells) {
        res.start = t;
        res.pathCells = cells;
        total_path_cells_ += cells;
        return res;
    };
    auto grant_l = [&](const LPath &path) {
        everyCell(path, [&](int id) {
            claimCell(id, t, dur);
            return true;
        });
        return grant(path.size());
    };

    for (int attempt = 0; attempt < kMaxStalls; ++attempt) {
        if (pathClear(h, t, dur))
            return grant_l(h);
        ++res.conflicts;

        if (pathClear(v, t, dur))
            return grant_l(v);

        searchPathInto(a, b, t, dur, detour_);
        if (!detour_.empty()) {
            for (int id : detour_)
                claimCell(id, t, dur);
            return grant(static_cast<int>(detour_.size()));
        }

        // No route at t: stall until the latest braid blocking either L
        // path releases its cells.
        t = stallUntil(h, v, t, dur);
    }
    panic("braid router livelock between sites ", a, " and ", b);
}

} // namespace square
