#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <numeric>
#include <tuple>

#include "common/logging.h"

namespace square {

namespace {

/**
 * The scoring half of the candidate sweep (Alg. 1), shared by the
 * lattice ring walk and the generic BFS.  Both traversals offer sites
 * in the same order and consult the same stop tests, so they make
 * bit-identical decisions (AllocatorParity).
 */
class Scorer
{
  public:
    Scorer(const SquareConfig &cfg, const Machine &machine,
           const Layout &layout, const AncillaHeap &heap,
           const GateScheduler &sched, size_t n_anchors, double cx,
           double cy, int64_t t_ready)
        : cfg_(cfg),
          layout_(layout),
          heap_(heap),
          sched_(sched),
          swap_time_(std::max(1, machine.times.swapGate)),
          n_anchors_(n_anchors),
          cx_(cx),
          cy_(cy),
          t_ready_(t_ready),
          visit_budget_(Allocator::visitBudget(cfg))
    {
    }

    /** Total anchor distance of the start site (ring 0). */
    void setStartAnchorSum(int64_t sum) { start_anchor_sum_ = sum; }

    /** True while the sweep may visit another site. */
    bool
    open() const
    {
        return visited_ < visit_budget_ &&
               (heap_seen_ < cfg_.candidateCap ||
                fresh_seen_ < cfg_.candidateCap);
    }

    /**
     * Admissible early exit before ring @p ring: a site d hops from the
     * start has total anchor distance at least n_anchors*d -
     * start_anchor_sum (triangle inequality).  Once the communication
     * score of that bound reaches the best score seen, no remaining
     * site can win.  The bound goes through the same divide/multiply
     * operations as a real candidate score, so float rounding cannot
     * make it inadmissible.
     */
    bool
    ringPruned(int64_t ring) const
    {
        if (best_site_ == kNoQubit || n_anchors_ == 0)
            return false;
        const int64_t lb_sum =
            static_cast<int64_t>(n_anchors_) * ring - start_anchor_sum_;
        if (lb_sum <= 0)
            return false;
        const double lb = cfg_.commWeight *
                          (static_cast<double>(lb_sum) /
                           static_cast<double>(n_anchors_));
        return lb >= best_score_;
    }

    /**
     * Visit site @p s at (@p x, @p y) and score it when it is a heap or
     * fresh candidate; @p anchor_dist_sum() is only evaluated then.
     */
    template <typename DistSum>
    void
    visit(PhysQubit s, double x, double y, DistSum &&anchor_dist_sum)
    {
        ++visited_;
        if (!layout_.isFree(s))
            return;
        const bool in_heap = heap_.contains(s);
        if (in_heap ? heap_seen_ >= cfg_.candidateCap
                    : layout_.everUsed(s) ||
                          fresh_seen_ >= cfg_.candidateCap)
            return;
        const double comm =
            n_anchors_ > 0 ? static_cast<double>(anchor_dist_sum()) /
                                 static_cast<double>(n_anchors_)
                           : 0.0;
        double sc = cfg_.commWeight * comm;
        if (in_heap) {
            ++heap_seen_;
            const int64_t clk = sched_.siteClock(s);
            if (clk > t_ready_) {
                sc += cfg_.serializationWeight *
                      static_cast<double>(clk - t_ready_) / swap_time_;
            }
        } else {
            ++fresh_seen_;
            const double dx = x - cx_;
            const double dy = y - cy_;
            sc += cfg_.areaWeight * std::sqrt(dx * dx + dy * dy);
        }
        if (sc < best_score_) {
            best_score_ = sc;
            best_site_ = s;
            best_in_heap_ = in_heap;
        }
    }

    /** Best candidate so far (kNoQubit when none was scored). */
    PhysQubit bestSite() const { return best_site_; }
    bool bestInHeap() const { return best_in_heap_; }

  private:
    const SquareConfig &cfg_;
    const Layout &layout_;
    const AncillaHeap &heap_;
    const GateScheduler &sched_;
    const double swap_time_;
    const size_t n_anchors_;
    const double cx_;
    const double cy_;
    const int64_t t_ready_;
    const int visit_budget_;
    int64_t start_anchor_sum_ = 0;
    int visited_ = 0;
    int heap_seen_ = 0;
    int fresh_seen_ = 0;
    double best_score_ = std::numeric_limits<double>::infinity();
    PhysQubit best_site_ = kNoQubit;
    bool best_in_heap_ = false;
};

/** Inclusive site rectangle [x0, x1] x [y0, y1] of a lattice. */
struct Rect
{
    int x0, y0, x1, y1;
};

/**
 * Offer ring @p d (Manhattan distance d >= 1 from (sx, sy)) clipped to
 * @p r, in exactly the order a FIFO BFS with W, E, N, S neighbour order
 * reaches it: columns x = sx-d .. sx-1 ascending, then sx+d .. sx+1
 * descending, then column sx, each column giving (x, sy-k) before
 * (x, sy+k) with k = d - |x - sx|.  Every BFS parent of a site in a
 * rectangle containing the start lies in the rectangle too, so the
 * clipped BFS visits this sequence filtered to @p r.  Returns false as
 * soon as @p fn does.
 */
template <typename F>
bool
forEachOnRing(int sx, int sy, int d, const Rect &r, F &&fn)
{
    auto column = [&](int x) {
        const int k = d - std::abs(x - sx);
        if (sy - k >= r.y0 && !fn(x, sy - k))
            return false;
        return k == 0 || sy + k > r.y1 || fn(x, sy + k);
    };
    // Columns with k beyond the rectangle's reach in y hold no site.
    const int reach_y = std::max(sy - r.y0, r.y1 - sy);
    for (int x = std::max(sx - d, r.x0),
             end = std::min(sx - 1, sx - d + reach_y);
         x <= end; ++x) {
        if (!column(x))
            return false;
    }
    for (int x = std::min(sx + d, r.x1),
             end = std::max(sx + 1, sx + d - reach_y);
         x >= end; --x) {
        if (!column(x))
            return false;
    }
    return column(sx);
}

} // namespace

CenterOutWalk::CenterOutWalk(int width, int height)
    : width_(width), height_(height)
{
    // A row's popped sites are a run around its central column(s), so
    // the frontier holds at most two sites per row: it never grows.
    frontier_.reserve(std::min(2 * static_cast<size_t>(height),
                               static_cast<size_t>(width) * height));
    // The central sites: one or two columns by one or two rows, as the
    // width and height are odd or even.
    for (int y = (height - 1) / 2; y <= height / 2; ++y) {
        for (int x = (width - 1) / 2; x <= width / 2; ++x)
            push(x, y);
    }
}

void
CenterOutWalk::push(int x, int y)
{
    const int64_t dx = 2 * int64_t{x} - width_ + 1;
    const int64_t dy = 2 * int64_t{y} - height_ + 1;
    frontier_.emplace_back(dx * dx + dy * dy, y * width_ + x);
    std::push_heap(frontier_.begin(), frontier_.end(), std::greater<>());
}

PhysQubit
CenterOutWalk::next()
{
    if (frontier_.empty())
        return kNoQubit;
    std::pop_heap(frontier_.begin(), frontier_.end(), std::greater<>());
    const PhysQubit site = frontier_.back().second;
    frontier_.pop_back();
    // The children: a step away from the centre in x (both ways from
    // an odd width's central column) and, from a central column, in y.
    const int x = site % width_, y = site / width_;
    const int tx = 2 * x - width_ + 1;
    if (tx <= 0 && x > 0)
        push(x - 1, y);
    if (tx >= 0 && x + 1 < width_)
        push(x + 1, y);
    if (std::abs(tx) <= 1) {
        const int ty = 2 * y - height_ + 1;
        if (ty <= 0 && y > 0)
            push(x, y - 1);
        if (ty >= 0 && y + 1 < height_)
            push(x, y + 1);
    }
    return site;
}

Allocator::Allocator(const SquareConfig &cfg, const Machine &machine,
                     Layout &layout, const GateScheduler &sched,
                     AncillaHeap &heap)
    : cfg_(cfg),
      machine_(machine),
      layout_(layout),
      sched_(sched),
      heap_(heap)
{
    lattice_ = dynamic_cast<const LatticeTopology *>(machine.topology.get());
    if (lattice_) {
        center_walk_ = CenterOutWalk(lattice_->width(), lattice_->height());
        center_order_.reserve(static_cast<size_t>(lattice_->numSites()));
        center_order_.push_back(center_walk_.next());
        return;
    }
    const Topology &topo = *machine_.topology;
    const int n = topo.numSites();
    visit_mark_.assign(static_cast<size_t>(n), 0);
    bfs_queue_.reserve(static_cast<size_t>(n));
    double cx = 0, cy = 0;
    for (int s = 0; s < n; ++s) {
        auto [x, y] = topo.coords(s);
        cx += x;
        cy += y;
    }
    cx /= n;
    cy /= n;
    center_order_.resize(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s)
        center_order_[static_cast<size_t>(s)] = s;
    std::stable_sort(center_order_.begin(), center_order_.end(),
                     [&](PhysQubit a, PhysQubit b) {
                         auto [ax, ay] = topo.coords(a);
                         auto [bx, by] = topo.coords(b);
                         double da = (ax - cx) * (ax - cx) +
                                     (ay - cy) * (ay - cy);
                         double db = (bx - cx) * (bx - cx) +
                                     (by - cy) * (by - cy);
                         return da < db;
                     });
}

PhysQubit
Allocator::nextFreshSite()
{
    for (;; ++fresh_cursor_) {
        if (fresh_cursor_ == center_order_.size()) {
            const PhysQubit next = lattice_ ? center_walk_.next() : kNoQubit;
            if (next == kNoQubit) {
                fatal("machine out of qubits: all ", machine_.numSites(),
                      " sites are in use or reserved (program does not "
                      "fit; pick a larger machine or a more aggressive "
                      "reclamation policy)");
            }
            center_order_.push_back(next);
        }
        const PhysQubit s = center_order_[fresh_cursor_];
        if (!layout_.everUsed(s) && layout_.isFree(s))
            return s;
    }
}

std::vector<LogicalQubit>
Allocator::allocPrimaries(int n)
{
    if (n > machine_.numSites()) {
        fatal("program needs ", n, " primary qubits but the machine has ",
              machine_.numSites(), " sites");
    }
    std::vector<LogicalQubit> out;
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(layout_.place(nextFreshSite()));
    return out;
}

PhysQubit
Allocator::claim(PhysQubit site, bool in_heap)
{
    if (site == kNoQubit) {
        // Anchor region exhausted: fall back to any reclaimed or fresh
        // site anywhere on the machine.
        if (!heap_.empty())
            return heap_.popLifo();
        return nextFreshSite();
    }
    if (in_heap)
        heap_.take(site);
    return site;
}

PhysQubit
Allocator::ringSweep(const std::vector<PhysQubit> &anchor_sites,
                     int64_t t_ready)
{
    const int w = lattice_->width();
    const size_t n_anchors = anchor_sites.size();
    anchor_x_.clear();
    anchor_y_.clear();
    for (PhysQubit a : anchor_sites) {
        anchor_x_.push_back(a % w);
        anchor_y_.push_back(a / w);
    }
    const PhysQubit start =
        n_anchors > 0 ? anchor_sites.front() : center_order_.front();
    const int sx = start % w, sy = start / w;

    // Anchor centroid (the area-expansion reference point), and the
    // sweep region: the lattice, cut to the inflated anchor bounding
    // box when there are anchors.
    double cx = sx, cy = sy;
    if (n_anchors > 0) {
        const double n = static_cast<double>(n_anchors);
        cx = std::accumulate(anchor_x_.begin(), anchor_x_.end(), 0.0) / n;
        cy = std::accumulate(anchor_y_.begin(), anchor_y_.end(), 0.0) / n;
    }
    Rect r{0, 0, w - 1, lattice_->height() - 1};
    if (n_anchors > 0) {
        const auto [bx0, bx1] =
            std::minmax_element(anchor_x_.begin(), anchor_x_.end());
        const auto [by0, by1] =
            std::minmax_element(anchor_y_.begin(), anchor_y_.end());
        const int m = cfg_.anchorBoxMargin;
        r = {std::max(r.x0, *bx0 - m), std::max(r.y0, *by0 - m),
             std::min(r.x1, *bx1 + m), std::min(r.y1, *by1 + m)};
    }

    Scorer sc(cfg_, machine_, layout_, heap_, sched_, n_anchors, cx, cy,
              t_ready);
    auto anchor_dist_sum = [&](int x, int y) {
        int64_t sum = 0;
        for (size_t i = 0; i < n_anchors; ++i)
            sum += std::abs(x - anchor_x_[i]) + std::abs(y - anchor_y_[i]);
        return sum;
    };
    auto visit = [&](int x, int y) {
        if (!sc.open())
            return false;
        sc.visit(y * w + x, x, y, [&] { return anchor_dist_sum(x, y); });
        return true;
    };
    if (n_anchors > 0)
        sc.setStartAnchorSum(anchor_dist_sum(sx, sy));
    // A negative anchorBoxMargin can shrink the box off the start, and
    // then (as in the BFS) nothing is visited.
    if (sx >= r.x0 && sx <= r.x1 && sy >= r.y0 && sy <= r.y1 &&
        visit(sx, sy)) {
        const int last_ring = std::max(sx - r.x0, r.x1 - sx) +
                              std::max(sy - r.y0, r.y1 - sy);
        for (int d = 1; d <= last_ring; ++d) {
            if (!sc.open() || sc.ringPruned(d) ||
                !forEachOnRing(sx, sy, d, r, visit))
                break;
        }
    }
    return claim(sc.bestSite(), sc.bestInHeap());
}

PhysQubit
Allocator::bfsSweep(const std::vector<PhysQubit> &anchor_sites,
                    int64_t t_ready)
{
    const Topology &topo = *machine_.topology;
    const size_t n_anchors = anchor_sites.size();
    const PhysQubit start =
        n_anchors > 0 ? anchor_sites.front() : center_order_.front();

    constexpr double kInf = std::numeric_limits<double>::infinity();
    double cx = 0, cy = 0;
    double bx0 = kInf, by0 = kInf, bx1 = -kInf, by1 = -kInf;
    for (PhysQubit a : anchor_sites) {
        auto [x, y] = topo.coords(a);
        cx += x;
        cy += y;
        bx0 = std::min(bx0, x);
        bx1 = std::max(bx1, x);
        by0 = std::min(by0, y);
        by1 = std::max(by1, y);
    }
    if (n_anchors > 0) {
        cx /= static_cast<double>(n_anchors);
        cy /= static_cast<double>(n_anchors);
    } else {
        std::tie(cx, cy) = topo.coords(start);
    }
    const bool use_box = n_anchors > 0;
    if (use_box) {
        const double m = cfg_.anchorBoxMargin;
        bx0 -= m;
        by0 -= m;
        bx1 += m;
        by1 += m;
    }

    Scorer sc(cfg_, machine_, layout_, heap_, sched_, n_anchors, cx, cy,
              t_ready);
    auto anchor_dist_sum = [&](PhysQubit s) {
        int64_t sum = 0;
        for (PhysQubit a : anchor_sites)
            sum += topo.distance(s, a);
        return sum;
    };
    if (n_anchors > 0)
        sc.setStartAnchorSum(anchor_dist_sum(start));

    ++visit_stamp_;
    bfs_queue_.clear();
    auto enqueue = [&](PhysQubit s) {
        if (visit_mark_[static_cast<size_t>(s)] == visit_stamp_)
            return;
        if (use_box) {
            auto [x, y] = topo.coords(s);
            if (x < bx0 || x > bx1 || y < by0 || y > by1)
                return;
        }
        visit_mark_[static_cast<size_t>(s)] = visit_stamp_;
        bfs_queue_.push_back(s);
    };
    enqueue(start);

    // One site is dequeued per visit, so only the first budget queue
    // entries are ever dequeued: once the queue holds that many, no
    // further expansion can change a visit, and a ring boundary
    // recorded at or past the budget is never reached.  On an
    // all-to-all machine the first expansion already fills the queue.
    const size_t budget = static_cast<size_t>(visitBudget(cfg_));
    // A site dequeued after ring_end is one hop further from the start.
    int64_t ring = 0;
    size_t ring_end = 1;
    for (size_t q_head = 0; q_head < bfs_queue_.size() && sc.open();) {
        if (q_head == ring_end) {
            ++ring;
            ring_end = bfs_queue_.size();
            if (sc.ringPruned(ring))
                break;
        }
        const PhysQubit s = bfs_queue_[q_head++];
        auto [x, y] = topo.coords(s);
        sc.visit(s, x, y, [&] { return anchor_dist_sum(s); });
        if (bfs_queue_.size() < budget)
            topo.forEachNeighbor(s, enqueue);
    }
    return claim(sc.bestSite(), sc.bestInHeap());
}

PhysQubit
Allocator::chooseSite(const std::vector<PhysQubit> &anchor_sites,
                      int64_t t_ready)
{
    if (cfg_.alloc == AllocPolicy::Lifo) {
        if (!heap_.empty())
            return heap_.popLifo();
        return nextFreshSite();
    }
    return lattice_ ? ringSweep(anchor_sites, t_ready)
                    : bfsSweep(anchor_sites, t_ready);
}

void
Allocator::allocAncillaInto(int n, const ModuleStats &st,
                            std::span<const LogicalQubit> args,
                            int64_t t_ready, LogicalQubit *out)
{
    for (int i = 0; i < n; ++i) {
        // Anchor on the parameters this ancilla interacts with; when
        // the interaction analysis is empty, anchor on all args.
        std::vector<PhysQubit> &anchors = anchor_scratch_;
        anchors.clear();
        if (i < static_cast<int>(st.ancillaParams.size())) {
            for (int p : st.ancillaParams[static_cast<size_t>(i)]) {
                if (p < static_cast<int>(args.size()))
                    anchors.push_back(
                        layout_.siteOf(args[static_cast<size_t>(p)]));
            }
        }
        if (anchors.empty()) {
            for (LogicalQubit q : args)
                anchors.push_back(layout_.siteOf(q));
        }
        PhysQubit site = chooseSite(anchors, t_ready);
        out[i] = layout_.place(site);
    }
}

void
Allocator::reserveAnchors(size_t n)
{
    anchor_scratch_.reserve(n);
    if (lattice_) {
        anchor_x_.reserve(n);
        anchor_y_.reserve(n);
    }
}

std::vector<LogicalQubit>
Allocator::allocAncilla(int n, const ModuleStats &st,
                        std::span<const LogicalQubit> args,
                        int64_t t_ready)
{
    std::vector<LogicalQubit> out(static_cast<size_t>(n));
    allocAncillaInto(n, st, args, t_ready, out.data());
    return out;
}

} // namespace square
