/**
 * @file
 * Unit tests for the swap router and the braid router, a lockstep
 * parity check of the swap router's closed-form lattice chains against
 * its generic pathInto path, a parity check of the braid router against
 * a naive reference model, and the braid router's memory footprint on a
 * huge machine.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

#include "core/compiler.h"
#include "core/heap.h"
#include "core/policy.h"
#include "opaque_lattice.h"
#include "route/braid_router.h"
#include "route/swap_router.h"
#include "schedule/scheduler.h"
#include "workloads/registry.h"

namespace square {
namespace {

/** A hop step that only moves the layout. */
auto
swapIn(Layout &layout)
{
    return [&layout](PhysQubit from, PhysQubit to) {
        layout.swapSites(from, to);
    };
}

TEST(SwapRouter, AdjacentNeedsNoSwaps)
{
    LatticeTopology topo(4, 4);
    Layout layout(16);
    SwapRouter router(topo);
    LogicalQubit qa = layout.place(topo.siteAt(1, 1));
    layout.place(topo.siteAt(2, 1));
    PhysQubit a = topo.siteAt(1, 1);
    int swaps = router.makeAdjacent(a, topo.siteAt(2, 1), swapIn(layout));
    EXPECT_EQ(swaps, 0);
    EXPECT_EQ(layout.siteOf(qa), topo.siteAt(1, 1));
}

TEST(SwapRouter, MovesQubitAlongPath)
{
    LatticeTopology topo(6, 1);
    Layout layout(6);
    SwapRouter router(topo);
    LogicalQubit qa = layout.place(0);
    LogicalQubit qb = layout.place(5);
    int emitted = 0;
    PhysQubit a = 0;
    int swaps = router.makeAdjacent(a, 5, [&](PhysQubit f, PhysQubit t) {
        ++emitted;
        layout.swapSites(f, t);
    });
    EXPECT_EQ(swaps, 4); // distance 5, stop adjacent
    EXPECT_EQ(emitted, 4);
    EXPECT_EQ(a, 4);
    EXPECT_EQ(layout.siteOf(qa), 4);
    EXPECT_EQ(layout.siteOf(qb), 5);
}

TEST(SwapRouter, SwapsThroughOccupiedSites)
{
    LatticeTopology topo(4, 1);
    Layout layout(4);
    SwapRouter router(topo);
    LogicalQubit qa = layout.place(0);
    LogicalQubit mid = layout.place(1);
    LogicalQubit qb = layout.place(3);
    PhysQubit a = 0;
    router.makeAdjacent(a, 3, swapIn(layout));
    EXPECT_EQ(layout.siteOf(qa), 2);
    // the in-between qubit was displaced to site 0 then stayed
    EXPECT_EQ(layout.siteOf(mid), 0);
    EXPECT_EQ(layout.siteOf(qb), 3);
}

TEST(SwapRouter, MoveToLandsExactly)
{
    LatticeTopology topo(5, 5);
    Layout layout(25);
    SwapRouter router(topo);
    LogicalQubit q = layout.place(topo.siteAt(0, 0));
    PhysQubit a = topo.siteAt(0, 0);
    int swaps = router.moveTo(a, topo.siteAt(3, 2), swapIn(layout));
    EXPECT_EQ(swaps, 5);
    EXPECT_EQ(a, topo.siteAt(3, 2));
    EXPECT_EQ(layout.siteOf(q), topo.siteAt(3, 2));
}

TEST(SwapRouter, LatticeAdjacencyMatchesDistance)
{
    // The closed-form test (no division) against Topology::distance on
    // every site pair, including the wrap between row ends.
    for (auto [w, h] : {std::pair{5, 5}, {12, 3}, {1, 16}, {16, 1}, {7, 2}}) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        LatticeTopology topo(w, h);
        SwapRouter router(topo);
        for (PhysQubit a = 0; a < topo.numSites(); ++a) {
            for (PhysQubit b = 0; b < topo.numSites(); ++b)
                ASSERT_EQ(router.adjacent(a, b), topo.distance(a, b) <= 1)
                    << a << ", " << b;
        }
    }
}

TEST(SwapRouter, RoutingToItselfIsAnInvariantViolation)
{
    LatticeTopology topo(3, 3);
    Layout layout(9);
    SwapRouter router(topo);
    PhysQubit a = 4;
    EXPECT_THROW(router.makeAdjacent(a, 4, swapIn(layout)), PanicError);
}

/** A scheduler with its own layout, ancilla heap and gate trace. */
struct ScheduleSide
{
    explicit ScheduleSide(Machine m)
        : machine(std::move(m)),
          layout(machine.numSites()),
          heap(machine.numSites()),
          sched(machine, layout, heap, &trace)
    {
    }

    Machine machine;
    Layout layout;
    AncillaHeap heap;
    VectorTrace trace;
    GateScheduler sched;
};

/**
 * Two schedulers in lockstep on identical lattice geometry: one on a
 * real LatticeTopology (the closed-form chains and adjacency test) and
 * one behind OpaqueLattice (pathInto and the virtual adjacency test).
 * Both machines keep Toffoli as a macro gate, so a Toffoli gathers its
 * operands with makeAdjacent and moveTo.  Every operation is applied to
 * both sides, and same() compares everything the swap path writes.
 */
class SwapParityRig
{
  public:
    SwapParityRig(int w, int h)
        : fast_(Machine::nisqLatticeMacro(w, h)), generic_(opaque(w, h))
    {
    }

    const ScheduleSide &fast() const { return fast_; }

    /**
     * Place a qubit on the free @p site on both sides, taking the site
     * out of the heap as an allocation does.
     */
    LogicalQubit
    place(PhysQubit site)
    {
        LogicalQubit q = kNoLogical;
        for (ScheduleSide *side : {&fast_, &generic_}) {
            if (side->heap.contains(site))
                side->heap.take(site);
            const LogicalQubit got = side->layout.place(site);
            if (q == kNoLogical)
                q = got;
            EXPECT_EQ(got, q);
        }
        return q;
    }

    /** Remove @p q on both sides; its site joins the heap (a reclaim). */
    void
    reclaim(LogicalQubit q)
    {
        for (ScheduleSide *side : {&fast_, &generic_}) {
            const PhysQubit site = side->layout.siteOf(q);
            side->layout.remove(q);
            side->heap.push(site);
        }
    }

    void
    apply(GateKind kind, const std::vector<LogicalQubit> &ops)
    {
        fast_.sched.apply(kind, ops);
        generic_.sched.apply(kind, ops);
    }

    /**
     * Both layout maps, the ever-used flags and sitesTouched, heap
     * membership and popLifo order, every site clock, the makespan,
     * SchedStats and the gate trace.  The fast side's heap must also
     * hold exactly the free ever-used sites, since every reclaim
     * pushes and every placement takes.
     */
    ::testing::AssertionResult
    same() const
    {
        const Layout &lf = fast_.layout, &lg = generic_.layout;
        for (PhysQubit s = 0; s < lf.numSites(); ++s) {
            const LogicalQubit q = lf.qubitAt(s);
            if (q != lg.qubitAt(s) || lf.everUsed(s) != lg.everUsed(s) ||
                fast_.heap.contains(s) != generic_.heap.contains(s) ||
                fast_.sched.siteClock(s) != generic_.sched.siteClock(s))
                return ::testing::AssertionFailure()
                       << "site " << s << ": qubit " << q << "/"
                       << lg.qubitAt(s) << ", clock "
                       << fast_.sched.siteClock(s) << "/"
                       << generic_.sched.siteClock(s);
            if (q != kNoLogical && (lf.siteOf(q) != s || lg.siteOf(q) != s))
                return ::testing::AssertionFailure()
                       << "qubit " << q << " is not on site " << s;
            if (fast_.heap.contains(s) != (lf.isFree(s) && lf.everUsed(s)))
                return ::testing::AssertionFailure()
                       << "heap membership of site " << s << " is stale";
        }
        if (lf.sitesTouched() != lg.sitesTouched() ||
            lf.numLive() != lg.numLive() ||
            fast_.heap.size() != generic_.heap.size())
            return ::testing::AssertionFailure()
                   << "sitesTouched/numLive/heap size differ";
        AncillaHeap hf = fast_.heap, hg = generic_.heap;
        while (!hf.empty()) {
            const PhysQubit a = hf.popLifo(), b = hg.popLifo();
            if (a != b)
                return ::testing::AssertionFailure()
                       << "popLifo order: " << a << " vs " << b;
        }
        const SchedStats &f = fast_.sched.stats(), &g = generic_.sched.stats();
        if (fast_.sched.makespan() != generic_.sched.makespan() ||
            f.totalGates != g.totalGates ||
            f.oneQubitGates != g.oneQubitGates ||
            f.twoQubitGates != g.twoQubitGates || f.tGates != g.tGates ||
            f.toffoliGates != g.toffoliGates || f.swaps != g.swaps ||
            f.routedGates != g.routedGates ||
            f.braidConflicts != g.braidConflicts || f.braids != g.braids)
            return ::testing::AssertionFailure()
                   << "makespan or SchedStats differ: swaps " << f.swaps
                   << "/" << g.swaps << ", routed " << f.routedGates << "/"
                   << g.routedGates;
        const std::vector<TimedGate> &tf = fast_.trace.gates();
        const std::vector<TimedGate> &tg = generic_.trace.gates();
        if (tf.size() != tg.size())
            return ::testing::AssertionFailure()
                   << "trace lengths " << tf.size() << "/" << tg.size();
        for (size_t i = 0; i < tf.size(); ++i) {
            if (tf[i].kind != tg[i].kind || tf[i].arity != tg[i].arity ||
                tf[i].sites != tg[i].sites || tf[i].start != tg[i].start ||
                tf[i].duration != tg[i].duration)
                return ::testing::AssertionFailure()
                       << "trace gate " << i << " differs";
        }
        return ::testing::AssertionSuccess();
    }

  private:
    static Machine
    opaque(int w, int h)
    {
        Machine m = Machine::nisqLatticeMacro(w, h);
        m.topology = std::make_unique<OpaqueLattice>(w, h);
        return m;
    }

    ScheduleSide fast_;
    ScheduleSide generic_;
};

/**
 * A seeded stream of @p steps operations on a @p w x @p h lattice, both
 * sides compared after every one: placements on free (fresh or
 * reclaimed) sites and reclaims, X gates, two-qubit gates (CNOT, CZ and
 * program SWAPs) and macro Toffolis.  A Toffoli's target sits on a site
 * with two neighbours or more, so its operands always gather.
 */
void
driveSwapParity(int w, int h, int steps, uint64_t seed)
{
    SwapParityRig rig(w, h);
    const LatticeTopology topo(w, h);
    const int n = w * h;
    std::mt19937_64 rng(seed);
    std::vector<LogicalQubit> live;
    auto placeAnywhere = [&] {
        std::vector<PhysQubit> free_sites;
        for (PhysQubit s = 0; s < n; ++s) {
            if (rig.fast().layout.isFree(s))
                free_sites.push_back(s);
        }
        live.push_back(rig.place(free_sites[rng() % free_sites.size()]));
    };
    // Distinct live qubits; a Toffoli's target (drawn first, placed
    // last) sits on a site with two neighbours or more.  At most two
    // sites have fewer, and at least four qubits stay live.
    auto operands = [&](size_t count) {
        std::vector<LogicalQubit> ops;
        auto draw = [&] {
            for (;;) {
                const LogicalQubit q = live[rng() % live.size()];
                if (std::find(ops.begin(), ops.end(), q) == ops.end())
                    return q;
            }
        };
        if (count == 3) {
            LogicalQubit tgt = draw();
            while (topo.neighbors(rig.fast().layout.siteOf(tgt)).size() < 2)
                tgt = draw();
            ops.push_back(tgt);
        }
        while (ops.size() < count)
            ops.push_back(draw());
        if (count == 3)
            std::rotate(ops.begin(), ops.begin() + 1, ops.end());
        return ops;
    };
    while (static_cast<int>(live.size()) < std::max(4, n / 3))
        placeAnywhere();
    ASSERT_TRUE(rig.same());
    const GateKind two_qubit[] = {GateKind::CNOT, GateKind::CNOT,
                                  GateKind::CZ, GateKind::Swap};
    for (int step = 0; step < steps; ++step) {
        const int op = static_cast<int>(rng() % 16);
        if (op < 2 && static_cast<int>(live.size()) < 3 * n / 5) {
            placeAnywhere();
        } else if (op < 4 && live.size() > 4) {
            const size_t k = rng() % live.size();
            rig.reclaim(live[k]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        } else if (op < 5) {
            rig.apply(GateKind::X, operands(1));
        } else if (op < 12) {
            rig.apply(two_qubit[rng() % 4], operands(2));
        } else {
            rig.apply(GateKind::Toffoli, operands(3));
        }
        ASSERT_TRUE(rig.same()) << "step " << step;
    }
    const SchedStats &st = rig.fast().sched.stats();
    EXPECT_GT(st.routedGates, 0);
    EXPECT_GT(st.swaps, 0);
    EXPECT_GT(st.toffoliGates, 0);
}

TEST(SwapRouterParity, ClosedFormChainsMatchPathInto)
{
    for (auto [w, h] : {std::pair{5, 5}, {12, 3}, {1, 16}, {16, 1}, {20, 20}}) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        driveSwapParity(w, h, 600, 17 + static_cast<uint64_t>(w * h));
    }
}

TEST(BraidRouter, ReservesAtReadyWhenFree)
{
    LatticeTopology topo(6, 6);
    BraidRouter router(topo);
    auto res = router.reserve(topo.siteAt(0, 0), topo.siteAt(4, 4),
                              /*ready=*/10, /*dur=*/2);
    EXPECT_EQ(res.start, 10);
    EXPECT_EQ(res.conflicts, 0);
    EXPECT_GT(res.pathCells, 0);
    EXPECT_EQ(router.totalPathCells(), res.pathCells);
}

TEST(BraidRouter, NonOverlappingTimesNoConflict)
{
    LatticeTopology topo(6, 6);
    BraidRouter router(topo);
    auto r1 = router.reserve(topo.siteAt(0, 2), topo.siteAt(5, 2), 0, 2);
    // Same corridor but after r1 released.
    auto r2 = router.reserve(topo.siteAt(0, 2), topo.siteAt(5, 2), 2, 2);
    EXPECT_EQ(r1.conflicts, 0);
    EXPECT_EQ(r2.conflicts, 0);
    EXPECT_EQ(r2.start, 2);
}

TEST(BraidRouter, CrossingBraidsConflictOrDetour)
{
    LatticeTopology topo(8, 8);
    BraidRouter router(topo);
    // A long horizontal braid across row 2.
    auto r1 = router.reserve(topo.siteAt(0, 2), topo.siteAt(7, 2), 0, 4);
    EXPECT_EQ(r1.conflicts, 0);
    // A vertical braid crossing it in time: both L paths cross r1, so
    // it detours around r1's east end at once, one conflict for the
    // blocked horizontal-first attempt and ten cells longer than its
    // uncongested L path.
    auto r2 = router.reserve(topo.siteAt(4, 0), topo.siteAt(4, 7), 0, 4);
    EXPECT_EQ(r2.start, 0);
    EXPECT_EQ(r2.conflicts, 1);
    EXPECT_EQ(r2.pathCells, 27);
    BraidRouter uncongested(topo);
    EXPECT_EQ(uncongested
                  .reserve(topo.siteAt(4, 0), topo.siteAt(4, 7), 0, 4)
                  .pathCells,
              17);
    EXPECT_EQ(router.totalPathCells(), 42);
}

TEST(BraidRouter, HeavyCongestionStillCompletes)
{
    LatticeTopology topo(4, 4);
    BraidRouter router(topo);
    int64_t max_start = 0;
    int64_t conflicts = 0;
    for (int i = 0; i < 200; ++i) {
        auto r = router.reserve(topo.siteAt(0, i % 4),
                                topo.siteAt(3, (i + 1) % 4), 0, 3);
        max_start = std::max(max_start, r.start);
        conflicts += r.conflicts;
    }
    // Congestion forces some braids to start late.
    EXPECT_GT(max_start, 0);
    EXPECT_GT(conflicts, 0);
}

TEST(BraidRouter, AdjacentSitesStillBraid)
{
    LatticeTopology topo(4, 4);
    BraidRouter router(topo);
    auto r = router.reserve(topo.siteAt(1, 1), topo.siteAt(2, 1), 5, 2);
    EXPECT_EQ(r.start, 5);
    EXPECT_GT(r.pathCells, 0);
}

TEST(BraidRouter, NegativeReadyIsAnInvariantViolation)
{
    // An unwritten reservation slot holds [0, 0), which a window
    // starting before 0 would overlap; the scheduler's ready times are
    // maxima of site clocks and never negative.
    LatticeTopology topo(4, 4);
    BraidRouter router(topo);
    EXPECT_THROW(router.reserve(topo.siteAt(0, 0), topo.siteAt(3, 3), -1, 2),
                 PanicError);
    EXPECT_EQ(router.totalPathCells(), 0);
}

/**
 * Naive reference braid router written from the contract in
 * route/braid_router.h: a list of the last eight reservations per
 * channel cell, L paths built cell by cell, a std::deque BFS, and the
 * same probe order (horizontal-first, vertical-first, BFS, stall).  It
 * also counts the stalls, detours and ring evictions it makes, so the
 * parity streams can show that they reach every branch.
 */
class ReferenceBraidRouter
{
  public:
    explicit ReferenceBraidRouter(const LatticeTopology &topo)
        : topo_(topo),
          cells_w_(2 * topo.width() + 1),
          cells_h_(2 * topo.height() + 1),
          cells_(static_cast<size_t>(cells_w_) * cells_h_)
    {
    }

    BraidRouter::Reservation
    reserve(PhysQubit a, PhysQubit b, int64_t ready, int dur)
    {
        const std::vector<int> horizontal = lPath(a, b, true);
        const std::vector<int> vertical = lPath(a, b, false);
        BraidRouter::Reservation res;
        for (int64_t t = ready;; ++stalls) {
            if (isFree(horizontal, t, dur))
                return grant(res, horizontal, t, dur);
            ++res.conflicts;
            if (isFree(vertical, t, dur))
                return grant(res, vertical, t, dur);
            const std::vector<int> detour = search(a, b, t, dur);
            if (!detour.empty()) {
                ++detours;
                return grant(res, detour, t, dur);
            }
            int64_t until = t + 1;
            for (const std::vector<int> *path : {&horizontal, &vertical}) {
                for (int cell : *path) {
                    for (const Window &w : cells_[static_cast<size_t>(cell)]) {
                        if (overlaps(w, t, dur))
                            until = std::max(until, w.end);
                    }
                }
            }
            t = until;
        }
    }

    int64_t pathCells = 0;
    int64_t stalls = 0;
    int64_t detours = 0;
    int64_t evictions = 0;

  private:
    struct Window
    {
        int64_t start;
        int64_t end;
    };

    static bool
    overlaps(const Window &w, int64_t t, int dur)
    {
        return w.start < t + dur && t < w.end;
    }

    int cell(int x, int y) const { return y * cells_w_ + x; }

    bool
    isFree(int c, int64_t t, int dur) const
    {
        for (const Window &w : cells_[static_cast<size_t>(c)]) {
            if (overlaps(w, t, dur))
                return false;
        }
        return true;
    }

    bool
    isFree(const std::vector<int> &path, int64_t t, int dur) const
    {
        for (int c : path) {
            if (!isFree(c, t, dur))
                return false;
        }
        return true;
    }

    BraidRouter::Reservation
    grant(BraidRouter::Reservation res, const std::vector<int> &path,
          int64_t t, int dur)
    {
        for (int c : path) {
            std::vector<Window> &ring = cells_[static_cast<size_t>(c)];
            ring.push_back({t, t + dur});
            if (ring.size() > 8) {
                ring.erase(ring.begin());
                ++evictions;
            }
        }
        res.start = t;
        res.pathCells = static_cast<int>(path.size());
        pathCells += static_cast<int64_t>(path.size());
        return res;
    }

    /** Walk one cell at a time from the cell beside a, via the corner,
     *  to the cell beside b. */
    std::vector<int>
    lPath(PhysQubit a, PhysQubit b, bool horizontal_first) const
    {
        const int ax = 2 * topo_.xOf(a) + 1, ay = 2 * topo_.yOf(a) + 1;
        const int bx = 2 * topo_.xOf(b) + 1, by = 2 * topo_.yOf(b) + 1;
        int x = horizontal_first ? ax : ax - 1;
        int y = horizontal_first ? ay - 1 : ay;
        std::vector<int> out{cell(x, y)};
        auto walk = [&](int to_x, int to_y) {
            while (x != to_x || y != to_y) {
                x += (to_x > x) - (to_x < x);
                y += (to_y > y) - (to_y < y);
                out.push_back(cell(x, y));
            }
        };
        if (horizontal_first) {
            walk(bx - 1, ay - 1);
            walk(bx - 1, by);
        } else {
            walk(ax - 1, by - 1);
            walk(bx, by - 1);
        }
        return out;
    }

    std::vector<int>
    search(PhysQubit a, PhysQubit b, int64_t t, int dur) const
    {
        const int ax = 2 * topo_.xOf(a) + 1, ay = 2 * topo_.yOf(a) + 1;
        const int bx = 2 * topo_.xOf(b) + 1, by = 2 * topo_.yOf(b) + 1;
        const int x_lo = std::max(0, std::min(ax, bx) - 8);
        const int x_hi = std::min(cells_w_ - 1, std::max(ax, bx) + 8);
        const int y_lo = std::max(0, std::min(ay, by) - 8);
        const int y_hi = std::min(cells_h_ - 1, std::max(ay, by) + 8);
        const int dx[] = {0, 0, -1, 1}; // N, S, W, E
        const int dy[] = {-1, 1, 0, 0};

        std::map<int, int> parent;
        std::deque<std::pair<int, int>> queue;
        int goal = -1;
        auto enqueue = [&](int x, int y, int from) {
            const bool site_tile = x % 2 == 1 && y % 2 == 1;
            if (goal != -1 || x < x_lo || x > x_hi || y < y_lo ||
                y > y_hi || site_tile)
                return;
            const int c = cell(x, y);
            if (parent.count(c) != 0 || !isFree(c, t, dur))
                return;
            parent[c] = from;
            queue.emplace_back(x, y);
            if (std::abs(x - bx) + std::abs(y - by) == 1)
                goal = c;
        };
        for (int d = 0; d < 4; ++d)
            enqueue(ax + dx[d], ay + dy[d], -1);
        while (goal == -1 && !queue.empty()) {
            const auto [x, y] = queue.front();
            queue.pop_front();
            for (int d = 0; d < 4; ++d)
                enqueue(x + dx[d], y + dy[d], cell(x, y));
        }
        std::vector<int> path;
        for (int c = goal; c != -1; c = parent.at(c))
            path.insert(path.begin(), c);
        return path;
    }

    const LatticeTopology &topo_;
    int cells_w_;
    int cells_h_;
    std::vector<std::vector<Window>> cells_;
};

/** Both routers reserve one braid; success when every outcome matches. */
::testing::AssertionResult
sameReservation(BraidRouter &router, ReferenceBraidRouter &ref, PhysQubit a,
                PhysQubit b, int64_t ready, int dur)
{
    const BraidRouter::Reservation got = router.reserve(a, b, ready, dur);
    const BraidRouter::Reservation want = ref.reserve(a, b, ready, dur);
    if (got.start == want.start && got.conflicts == want.conflicts &&
        got.pathCells == want.pathCells &&
        router.totalPathCells() == ref.pathCells)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "braid " << a << " -> " << b << " ready " << ready << " dur "
           << dur << ": start/conflicts/cells " << got.start << "/"
           << got.conflicts << "/" << got.pathCells << ", reference "
           << want.start << "/" << want.conflicts << "/" << want.pathCells
           << "; path cells " << router.totalPathCells() << ", reference "
           << ref.pathCells;
}

using OperandPicker =
    std::function<std::pair<PhysQubit, PhysQubit>(std::mt19937_64 &)>;

/**
 * Drive both routers through @p count reservations between operands
 * from @p pick, durations 2 or 10 and ready times drawn from [0, 200]
 * in no order; returns the reference for its counters.  Only path
 * lengths are visible, so a stream must be long enough for a detour
 * that took the other of two equal-length routes to change a later
 * outcome (2000 reservations catch a BFS that expands S before N).
 */
ReferenceBraidRouter
driveBoth(const LatticeTopology &topo, int count, uint64_t seed,
          const OperandPicker &pick)
{
    BraidRouter router(topo);
    ReferenceBraidRouter ref(topo);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> ready(0, 200);
    for (int i = 0; i < count; ++i) {
        const auto [a, b] = pick(rng);
        const int dur = rng() % 2 == 0 ? 2 : 10;
        const int64_t t = ready(rng);
        EXPECT_TRUE(sameReservation(router, ref, a, b, t, dur))
            << "reservation " << i;
        if (::testing::Test::HasFailure())
            break;
    }
    return ref;
}

/** Two distinct sites drawn uniformly from [lo, hi]. */
OperandPicker
anyTwo(PhysQubit lo, PhysQubit hi)
{
    return [lo, hi](std::mt19937_64 &rng) {
        std::uniform_int_distribution<PhysQubit> site(lo, hi);
        const PhysQubit a = site(rng);
        PhysQubit b = site(rng);
        while (b == a)
            b = site(rng);
        return std::make_pair(a, b);
    };
}

TEST(BraidRouterParity, CongestedSquareLatticeStallsAndEvicts)
{
    LatticeTopology topo(4, 4);
    const ReferenceBraidRouter ref =
        driveBoth(topo, 400, 1, anyTwo(0, topo.numSites() - 1));
    EXPECT_GT(ref.detours, 0);
    EXPECT_GT(ref.stalls, 0);
    EXPECT_GT(ref.evictions, 0);
}

TEST(BraidRouterParity, RectangularLattice)
{
    LatticeTopology topo(9, 7);
    const ReferenceBraidRouter ref =
        driveBoth(topo, 2000, 2, anyTwo(0, topo.numSites() - 1));
    EXPECT_GT(ref.detours, 0);
    EXPECT_GT(ref.stalls, 0);
}

TEST(BraidRouterParity, OneSiteWideStrips)
{
    for (auto [w, h] : {std::pair{1, 12}, std::pair{12, 1}}) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        LatticeTopology topo(w, h);
        const ReferenceBraidRouter ref =
            driveBoth(topo, 200, 3, anyTwo(0, topo.numSites() - 1));
        EXPECT_GT(ref.detours, 0);
        EXPECT_GT(ref.stalls, 0);
    }
}

TEST(BraidRouterParity, CellColumnsBeyondSixteenBits)
{
    // Sites past 32768 put their cells past column 65535.
    LatticeTopology topo(33000, 1);
    const ReferenceBraidRouter ref =
        driveBoth(topo, 200, 4, anyTwo(32768, 32831));
    EXPECT_GT(ref.detours, 0);
    EXPECT_GT(ref.stalls, 0);
}

TEST(BraidRouterParity, EdgeCornerAndAdjacentOperands)
{
    LatticeTopology topo(6, 5);
    const int w = topo.width(), h = topo.height();
    const std::vector<PhysQubit> corners = {
        topo.siteAt(0, 0), topo.siteAt(w - 1, 0), topo.siteAt(0, h - 1),
        topo.siteAt(w - 1, h - 1)};
    std::vector<PhysQubit> edges;
    for (PhysQubit s = 0; s < topo.numSites(); ++s) {
        const int x = topo.xOf(s), y = topo.yOf(s);
        if (x == 0 || y == 0 || x == w - 1 || y == h - 1)
            edges.push_back(s);
    }
    int call = 0;
    auto pick = [&](std::mt19937_64 &rng) {
        auto from = [&](const std::vector<PhysQubit> &set) {
            return set[rng() % set.size()];
        };
        PhysQubit a = 0, b = 0;
        switch (call++ % 3) {
        case 0: // corner to corner
            while (a == b) {
                a = from(corners);
                b = from(corners);
            }
            break;
        case 1: // edge to edge
            while (a == b) {
                a = from(edges);
                b = from(edges);
            }
            break;
        default: { // lattice neighbours
            a = static_cast<PhysQubit>(rng() % topo.numSites());
            b = from(topo.neighbors(a));
        }
        }
        return std::make_pair(a, b);
    };
    const ReferenceBraidRouter ref = driveBoth(topo, 2000, 5, pick);
    EXPECT_GT(ref.detours, 0);
    EXPECT_GT(ref.stalls, 0);
}

/**
 * Peak-RSS growth in KB of one compile of @p prog on @p machine, run in
 * a forked child: the child's peak starts at this process' current RSS,
 * so an earlier test's peak cannot hide the compile's.  -1 when the
 * child fails.
 */
long
forkedCompileGrowthKb(const Program &prog, const Machine &machine)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1;
    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        close(fds[0]);
        rusage start{};
        getrusage(RUSAGE_SELF, &start);
        (void)compile(prog, machine, SquareConfig::square(), {});
        const long start_kb = start.ru_maxrss;
        const bool sent = write(fds[1], &start_kb, sizeof start_kb) ==
                          static_cast<ssize_t>(sizeof start_kb);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    long start_kb = -1;
    const bool got = read(fds[0], &start_kb, sizeof start_kb) ==
                     static_cast<ssize_t>(sizeof start_kb);
    close(fds[0]);
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || !got)
        return -1;
    return usage.ru_maxrss - start_kb;
}

TEST(BraidRouterFootprint, HugeMachineCompileTouchesOnlyItsCells)
{
#ifdef __SANITIZE_ADDRESS__
    GTEST_SKIP() << "AddressSanitizer's shadow memory and redzones count "
                    "toward the process' RSS";
#endif
    // RD53 reaches a few dozen tiles; whole-grid initialisation of the
    // 136-byte rings alone would take 53 MB on 65536 x 1 (393 219 cells)
    // and 36 MB on 256 x 256.
    const Program prog = findBenchmark("RD53").build();
    for (auto [w, h] : {std::pair{65536, 1}, std::pair{256, 256}}) {
        SCOPED_TRACE("ft:" + std::to_string(w) + "x" + std::to_string(h));
        const Machine machine = Machine::ftBraid(w, h);
        const long growth_kb = forkedCompileGrowthKb(prog, machine);
        ASSERT_GE(growth_kb, 0);
        EXPECT_LT(growth_kb, 16 * 1024);
    }
}

} // namespace
} // namespace square
