/**
 * @file
 * Unit tests for the ancilla heap and the LAA allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

#include "core/allocator.h"
#include "core/compiler.h"
#include "core/heap.h"
#include "ir/builder.h"
#include "opaque_lattice.h"

namespace square {
namespace {

TEST(Heap, LifoOrder)
{
    AncillaHeap h(8);
    h.push(3);
    h.push(7);
    h.push(5);
    EXPECT_EQ(h.size(), 3);
    EXPECT_EQ(h.popLifo(), 5);
    EXPECT_EQ(h.popLifo(), 7);
    EXPECT_EQ(h.popLifo(), 3);
    EXPECT_TRUE(h.empty());
}

TEST(Heap, TakeSpecificSite)
{
    AncillaHeap h(4);
    h.push(1);
    h.push(2);
    h.push(3);
    h.take(2);
    EXPECT_FALSE(h.contains(2));
    EXPECT_EQ(h.popLifo(), 3);
    EXPECT_EQ(h.popLifo(), 1);
}

TEST(Heap, MisusePanics)
{
    AncillaHeap h(10);
    EXPECT_THROW(h.popLifo(), PanicError);
    h.push(4);
    EXPECT_THROW(h.push(4), PanicError);
    EXPECT_THROW(h.take(9), PanicError);
}

TEST(Heap, CompactionKeepsContents)
{
    AncillaHeap h(100);
    for (int i = 0; i < 100; ++i)
        h.push(i);
    for (int i = 0; i < 99; ++i)
        h.take(i); // force heavy tombstoning + compaction
    EXPECT_EQ(h.size(), 1);
    EXPECT_TRUE(h.contains(99));
    EXPECT_EQ(h.popLifo(), 99);
}

TEST(Heap, SwapRenamesFreeSite)
{
    Layout layout(4);
    AncillaHeap h(4);
    LogicalQubit q = layout.place(0);
    // site 1 was used then freed -> heap
    LogicalQubit tmp = layout.place(1);
    layout.remove(tmp);
    h.push(1);

    layout.swapSites(0, 1); // qubit moves onto the heap site
    h.onSwap(0, 1, layout);
    EXPECT_EQ(layout.siteOf(q), 1);
    EXPECT_FALSE(h.contains(1));
    EXPECT_TRUE(h.contains(0)); // the |0> moved to site 0
}

TEST(Heap, CompactPreservesLifoOrder)
{
    // Mid-stack take() calls tombstone entries; compaction must keep
    // the survivors in their original push order so popLifo still
    // returns most-recently-reclaimed first.  The 50th take crosses
    // the compaction threshold (60 slots > 4*live + 16 once live
    // drops below 11), so compact() demonstrably runs.
    AncillaHeap h(60);
    for (int i = 0; i < 60; ++i)
        h.push(i);
    for (int i = 0; i < 50; ++i)
        h.take(i);
    EXPECT_EQ(h.size(), 10);
    // A post-compaction take exercises the rebuilt position index.
    h.take(51);
    EXPECT_FALSE(h.contains(51));
    EXPECT_EQ(h.size(), 9);
    for (int i = 59; i >= 50; --i) {
        if (i == 51)
            continue;
        EXPECT_TRUE(h.contains(i));
        EXPECT_EQ(h.popLifo(), i);
    }
    EXPECT_TRUE(h.empty());
}

TEST(Heap, OnSwapRepairsMembershipBothDirections)
{
    Layout layout(6);
    AncillaHeap h(6);
    // The scheduler's swap step: exchange, then repair the heap.
    auto swap = [&](PhysQubit a, PhysQubit b) {
        layout.swapSites(a, b);
        h.onSwap(a, b, layout);
    };

    // Site 0 holds a live qubit; sites 1 and 2 are reclaimed |0>s.
    LogicalQubit q = layout.place(0);
    for (PhysQubit s : {1, 2}) {
        LogicalQubit tmp = layout.place(s);
        layout.remove(tmp);
        h.push(s);
    }

    // Swapping two heap sites leaves membership unchanged.
    swap(1, 2);
    EXPECT_TRUE(h.contains(1));
    EXPECT_TRUE(h.contains(2));
    EXPECT_EQ(h.size(), 2);

    // A live qubit swapping onto a heap site: the |0> migrates to the
    // qubit's old site, which must replace the claimed one in the heap.
    swap(0, 1);
    EXPECT_EQ(layout.siteOf(q), 1);
    EXPECT_FALSE(h.contains(1));
    EXPECT_TRUE(h.contains(0));
    EXPECT_EQ(h.size(), 2);

    // Swapping a heap site with a never-used free site: the |0> is now
    // on fresh ground, which stays out of the heap (fresh sites are a
    // different allocation class), and the vacated ever-used site
    // remains eligible.
    swap(2, 5);
    EXPECT_TRUE(h.contains(2)); // still free + ever-used
    EXPECT_FALSE(h.contains(5)); // never used: not heap material
    EXPECT_EQ(h.size(), 2);
}

/**
 * A ModuleStats whose ancillaParams rows are the given anchor lists,
 * packed into CSR storage this object owns and the view borrows.
 */
class AnchorRows
{
  public:
    AnchorRows(std::initializer_list<std::vector<int32_t>> rows)
    {
        offsets_.push_back(0);
        for (const std::vector<int32_t> &row : rows) {
            cols_.insert(cols_.end(), row.begin(), row.end());
            offsets_.push_back(static_cast<int32_t>(cols_.size()));
        }
        stats.ancillaParams = CsrRows(cols_.data(), offsets_.data(),
                                      offsets_.data() + 1, rows.size());
    }

    AnchorRows(const AnchorRows &) = delete;
    AnchorRows &operator=(const AnchorRows &) = delete;

    ModuleStats stats;

  private:
    std::vector<int32_t> cols_;
    std::vector<int32_t> offsets_;
};

class AllocatorTest : public ::testing::Test
{
  protected:
    AllocatorTest()
        : machine_(Machine::nisqLattice(5, 5)),
          layout_(25),
          heap_(25),
          sched_(machine_, layout_, heap_, nullptr)
    {
    }

    Machine machine_;
    Layout layout_;
    AncillaHeap heap_;
    GateScheduler sched_;
};

TEST_F(AllocatorTest, PrimariesCompactNearCenter)
{
    SquareConfig cfg = SquareConfig::square();
    Allocator alloc(cfg, machine_, layout_, sched_, heap_);
    auto prim = alloc.allocPrimaries(4);
    ASSERT_EQ(prim.size(), 4u);
    const Topology &topo = *machine_.topology;
    // All four within distance 2 of the central site.
    PhysQubit center = 12;
    for (LogicalQubit q : prim)
        EXPECT_LE(topo.distance(layout_.siteOf(q), center), 2);
}

TEST_F(AllocatorTest, LocalityPrefersNearbyHeapSite)
{
    SquareConfig cfg = SquareConfig::square();
    Allocator alloc(cfg, machine_, layout_, sched_, heap_);
    auto prim = alloc.allocPrimaries(2);

    // A reclaimed site right next to the primaries, and one far away.
    LatticeTopology topo(5, 5);
    PhysQubit near_site = kNoQubit;
    for (PhysQubit s : topo.neighbors(layout_.siteOf(prim[0]))) {
        if (layout_.isFree(s)) {
            near_site = s;
            break;
        }
    }
    ASSERT_NE(near_site, kNoQubit);
    PhysQubit far_site = topo.siteAt(4, 4);
    LogicalQubit t1 = layout_.place(near_site);
    layout_.remove(t1);
    heap_.push(near_site);
    LogicalQubit t2 = layout_.place(far_site);
    layout_.remove(t2);
    heap_.push(far_site);

    // Ancilla interacting with primary 0 should take the near site.
    AnchorRows st{{0}};
    auto anc = alloc.allocAncilla(1, st.stats, prim, 0);
    EXPECT_EQ(layout_.siteOf(anc[0]), near_site);
}

TEST_F(AllocatorTest, PrefersNearbyHeapSiteOverDistantFresh)
{
    SquareConfig cfg = SquareConfig::square();
    Allocator alloc(cfg, machine_, layout_, sched_, heap_);
    // Nine primaries fill the central 3x3 block, so every fresh
    // candidate is at least two hops from the center anchor.
    auto prim = alloc.allocPrimaries(9);
    ASSERT_EQ(prim.size(), 9u);

    // Reclaim one block-interior qubit: its site joins the heap at the
    // same distance as the nearest fresh ring, and the fresh ring
    // additionally pays the area-expansion penalty.
    LogicalQubit victim = prim.back();
    PhysQubit heap_site = layout_.siteOf(victim);
    layout_.remove(victim);
    heap_.push(heap_site);

    AnchorRows st{{0}}; // anchor on the central primary only
    auto anc = alloc.allocAncilla(1, st.stats, prim, 0);
    EXPECT_EQ(layout_.siteOf(anc[0]), heap_site);
}

TEST_F(AllocatorTest, LifoIgnoresLocality)
{
    SquareConfig cfg = SquareConfig::eager(); // LIFO allocation
    Allocator alloc(cfg, machine_, layout_, sched_, heap_);
    auto prim = alloc.allocPrimaries(2);

    LatticeTopology topo(5, 5);
    PhysQubit far_site = topo.siteAt(4, 4);
    LogicalQubit t = layout_.place(far_site);
    layout_.remove(t);
    heap_.push(far_site);

    AnchorRows st{{0}};
    auto anc = alloc.allocAncilla(1, st.stats, prim, 0);
    // LIFO pops the (far) heap site regardless of distance.
    EXPECT_EQ(layout_.siteOf(anc[0]), far_site);
}

TEST_F(AllocatorTest, ExhaustionIsFatal)
{
    SquareConfig cfg = SquareConfig::square();
    Allocator alloc(cfg, machine_, layout_, sched_, heap_);
    EXPECT_THROW(alloc.allocPrimaries(26), FatalError);
}

TEST_F(AllocatorTest, SerializationPenaltySteersAway)
{
    SquareConfig cfg = SquareConfig::square();
    cfg.serializationWeight = 100.0; // dominate the decision
    Allocator alloc(cfg, machine_, layout_, sched_, heap_);
    auto prim = alloc.allocPrimaries(1);
    PhysQubit p0 = layout_.siteOf(prim[0]);

    LatticeTopology topo(5, 5);
    // Two heap sites, equidistant-ish; make one "busy until late" by
    // scheduling gates on it.
    auto nbrs = topo.neighbors(p0);
    ASSERT_GE(nbrs.size(), 2u);
    PhysQubit busy = nbrs[0], idle = nbrs[1];
    LogicalQubit qb = layout_.place(busy);
    LogicalQubit ops[1] = {qb};
    for (int i = 0; i < 50; ++i)
        sched_.apply(GateKind::X, ops);
    layout_.remove(qb);
    heap_.push(busy);
    LogicalQubit qi = layout_.place(idle);
    layout_.remove(qi);
    heap_.push(idle);

    AnchorRows st{{0}};
    auto anc = alloc.allocAncilla(1, st.stats, prim, /*t_ready=*/0);
    EXPECT_EQ(layout_.siteOf(anc[0]), idle);
}

TEST(CenterOrder, LatticePrimariesMatchTheSortedOrder)
{
    // Draining every site through allocPrimaries on a lattice (the
    // center-out walk) gives the order of the reference: a stable sort
    // of all sites by squared distance of their coords from their mean.
    for (auto [w, h] : {std::pair{1, 37}, {37, 1}, {5, 5}, {6, 4}, {7, 33},
                        {64, 64}}) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        Machine machine = Machine::nisqLattice(w, h);
        const Topology &topo = *machine.topology;
        const int n = w * h;
        double cx = 0, cy = 0;
        for (PhysQubit s = 0; s < n; ++s) {
            cx += topo.coords(s).first;
            cy += topo.coords(s).second;
        }
        cx /= n;
        cy /= n;
        auto dist2 = [&](PhysQubit s) {
            auto [x, y] = topo.coords(s);
            return (x - cx) * (x - cx) + (y - cy) * (y - cy);
        };
        std::vector<PhysQubit> want(static_cast<size_t>(n));
        std::iota(want.begin(), want.end(), 0);
        std::stable_sort(want.begin(), want.end(),
                         [&](PhysQubit a, PhysQubit b) {
                             return dist2(a) < dist2(b);
                         });

        Layout layout(n);
        AncillaHeap heap(n);
        GateScheduler sched(machine, layout, heap, nullptr);
        Allocator alloc(SquareConfig::square(), machine, layout, sched,
                        heap);
        const std::vector<LogicalQubit> prim = alloc.allocPrimaries(n);
        std::vector<PhysQubit> got;
        for (LogicalQubit q : prim)
            got.push_back(layout.siteOf(q));
        EXPECT_EQ(got, want);
        EXPECT_THROW(alloc.allocPrimaries(1), FatalError);
    }
}

// -------------------------------------------------------------------
// Fast-path / generic-sweep parity
// -------------------------------------------------------------------

/**
 * Two allocators driven in lockstep over identical lattice geometry:
 * one on a real LatticeTopology (the ring walk) and one behind
 * OpaqueLattice (the generic breadth-first sweep).  Every operation
 * is applied to both sides, so logical qubit ids agree and one id
 * names the same qubit on either side.
 */
class ParityRig
{
  public:
    ParityRig(int w, int h, const SquareConfig &cfg)
        : cfg_(cfg),
          fast_(Machine::nisqLattice(w, h)),
          generic_(opaque(w, h)),
          lf_(w * h),
          lg_(w * h),
          hf_(w * h),
          hg_(w * h),
          sf_(fast_, lf_, hf_, nullptr),
          sg_(generic_, lg_, hg_, nullptr),
          af_(cfg_, fast_, lf_, sf_, hf_),
          ag_(cfg_, generic_, lg_, sg_, hg_)
    {
    }

    /** Place a qubit on @p site on both sides. */
    LogicalQubit
    place(PhysQubit site)
    {
        LogicalQubit q = lf_.place(site);
        EXPECT_EQ(lg_.place(site), q);
        return q;
    }

    /** Free @p q on both sides; its site joins the heap. */
    void
    reclaim(LogicalQubit q)
    {
        for (auto [layout, heap] :
             {std::pair{&lf_, &hf_}, std::pair{&lg_, &hg_}}) {
            PhysQubit s = layout->siteOf(q);
            layout->remove(q);
            heap->push(s);
        }
    }

    /** Advance @p q's site clock by @p gates single-qubit gates. */
    void
    busy(LogicalQubit q, int gates)
    {
        LogicalQubit ops[1] = {q};
        for (int i = 0; i < gates; ++i) {
            sf_.apply(GateKind::X, ops);
            sg_.apply(GateKind::X, ops);
        }
    }

    std::vector<LogicalQubit>
    primaries(int n)
    {
        auto pf = af_.allocPrimaries(n);
        auto pg = ag_.allocPrimaries(n);
        EXPECT_EQ(pf, pg);
        for (LogicalQubit q : pf)
            EXPECT_EQ(lf_.siteOf(q), lg_.siteOf(q));
        return pf;
    }

    /** Allocate @p n ancilla on both sides; the sites must agree. */
    std::vector<LogicalQubit>
    alloc(int n, const ModuleStats &st,
          const std::vector<LogicalQubit> &args, int64_t t_ready = 0)
    {
        auto ancf = af_.allocAncilla(n, st, args, t_ready);
        auto ancg = ag_.allocAncilla(n, st, args, t_ready);
        EXPECT_EQ(ancf, ancg);
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(lf_.siteOf(ancf[i]), lg_.siteOf(ancg[i]))
                << "ancilla " << i << " of " << n;
        }
        return ancf;
    }

  private:
    static Machine
    opaque(int w, int h)
    {
        Machine m = Machine::nisqLattice(w, h);
        m.topology = std::make_unique<OpaqueLattice>(w, h);
        return m;
    }

    SquareConfig cfg_;
    Machine fast_, generic_;
    Layout lf_, lg_;
    AncillaHeap hf_, hg_;
    GateScheduler sf_, sg_;
    Allocator af_, ag_;
};

TEST(AllocatorParity, LatticeFastPathMatchesGenericSweep)
{
    // Drive both sweeps through the same scripted allocate/free
    // sequence on a lattice small enough that the anchor box always
    // covers it, and compare every placement.
    ParityRig rig(8, 8, SquareConfig::square());
    auto prim = rig.primaries(6);

    // Busy one primary's site so the serialization term is exercised.
    rig.busy(prim[1], 20);

    AnchorRows st{{0}, {1, 2}, {3}, {0, 5}, {2, 4}};
    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto anc = rig.alloc(5, st.stats, prim);
        // Return a prefix to the heap so later rounds score reclaimed
        // sites against fresh ones.
        for (int i = 0; i < 3; ++i)
            rig.reclaim(anc[i]);
    }
}

/**
 * Anchors on the corners and edges of a 24x24 lattice, heap sites
 * sprinkled over it, and rounds of allocations anchored on one to
 * three of them.  With a small anchorBoxMargin the sweep region is the
 * lattice cut to a box around the anchors, so the ring walk's clipping
 * decides which sites are seen at all.
 */
void
runEdgeAnchorScript(const SquareConfig &cfg)
{
    const int kW = 24, kH = 24;
    ParityRig rig(kW, kH, cfg);
    LatticeTopology topo(kW, kH);
    std::vector<LogicalQubit> anchors;
    std::vector<bool> taken(kW * kH, false);
    for (auto [x, y] : {std::pair{0, 0}, {kW - 1, 0}, {0, kH - 1},
                        {kW - 1, kH - 1}, {12, 0}, {0, 11}, {kW - 1, 12},
                        {11, kH - 1}, {1, 5}, {22, 17}}) {
        anchors.push_back(rig.place(topo.siteAt(x, y)));
        taken[topo.siteAt(x, y)] = true;
    }
    for (PhysQubit s = 0; s < kW * kH; ++s) {
        if (!taken[s] && (topo.xOf(s) * 7 + topo.yOf(s) * 13) % 11 == 0)
            rig.reclaim(rig.place(s));
    }
    rig.busy(anchors[0], 30);
    rig.busy(anchors[5], 12);

    AnchorRows st{{0}, {1}, {2, 3}, {4, 0}, {5, 6, 7}, {3}, {8}, {9, 1}};
    for (int round = 0; round < 12; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto anc = rig.alloc(8, st.stats, anchors, /*t_ready=*/round * 3);
        for (int i = 0; i < 8; i += 2)
            rig.reclaim(anc[i]);
    }
}

TEST(AllocatorParity, ClippedAnchorBoxOnEdgesAndCorners)
{
    for (int margin : {1, 2}) {
        SCOPED_TRACE("margin " + std::to_string(margin));
        SquareConfig cfg = SquareConfig::square();
        cfg.anchorBoxMargin = margin;
        runEdgeAnchorScript(cfg);
    }
}

TEST(AllocatorParity, CoveringAnchorBoxMargin)
{
    // A margin of the lattice's width plus height boxes in the whole
    // 24x24 lattice: the unbounded sweep.
    SquareConfig cfg = SquareConfig::square();
    cfg.anchorBoxMargin = 24 + 24;
    runEdgeAnchorScript(cfg);
}

TEST(AllocatorParity, OneWideLattice)
{
    ParityRig rig(40, 1, SquareConfig::square());
    auto prim = rig.primaries(5);
    rig.busy(prim[2], 9);
    AnchorRows st{{0}, {4}, {1, 3}, {2}};
    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto anc = rig.alloc(4, st.stats, prim);
        rig.reclaim(anc[0]);
        rig.reclaim(anc[3]);
    }
}

TEST(AllocatorParity, VisitBudgetStop)
{
    // candidateCap = 1 gives the minimum visit budget of 256 sites,
    // which a sweep from the center of a 32x32 lattice spends 35 sites
    // into ring 11.  The lattice is full except a fresh site at the very
    // end of that ring, (16, 27), a patch of fresh sites in the far
    // corner and a column of heap sites on the far edge.  Anchors spread
    // over the lattice keep the ring early exit from firing, so every
    // sweep ends on its budget: first with no candidate (the heap
    // fallback), then with a busy heap site near the start as its pick
    // although the fresh site just past the budget would score better.
    const int kW = 32, kH = 32;
    SquareConfig cfg = SquareConfig::square();
    cfg.candidateCap = 1;
    ParityRig rig(kW, kH, cfg);
    LatticeTopology topo(kW, kH);
    std::vector<LogicalQubit> anchors;
    for (auto [x, y] : {std::pair{16, 16}, {0, 31}, {31, 0}})
        anchors.push_back(rig.place(topo.siteAt(x, y)));
    std::vector<LogicalQubit> edge;
    LogicalQubit near = kNoLogical;
    for (PhysQubit s = 0; s < kW * kH; ++s) {
        const int x = topo.xOf(s), y = topo.yOf(s);
        const bool fresh = (x == 16 && y == 27) ||
                           (x >= 28 && y >= 28 && (x + y) % 2 == 0);
        if (fresh || s == topo.siteAt(16, 16) || s == topo.siteAt(0, 31) ||
            s == topo.siteAt(31, 0))
            continue;
        LogicalQubit q = rig.place(s);
        if (x == 0 && y % 3 == 0)
            edge.push_back(q);
        if (x == 16 && y == 14)
            near = q;
    }
    for (LogicalQubit q : edge)
        rig.reclaim(q);

    AnchorRows st{{0, 1, 2}};
    rig.alloc(1, st.stats, anchors);

    rig.busy(near, 100);
    rig.reclaim(near);
    rig.alloc(1, st.stats, anchors);
}

TEST(AllocatorParity, EmptyAnchorList)
{
    // No arguments: the sweep starts at the machine center, without an
    // anchor box, and scores fresh sites by their distance from it.
    ParityRig rig(12, 12, SquareConfig::square());
    auto prim = rig.primaries(9);
    rig.busy(prim[4], 15);
    rig.reclaim(prim[4]);
    rig.reclaim(prim[7]);
    ModuleStats st;
    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto anc = rig.alloc(4, st, {}, /*t_ready=*/round * 5);
        rig.reclaim(anc[1]);
        rig.reclaim(anc[2]);
    }
}

// -------------------------------------------------------------------
// All-to-all machines
// -------------------------------------------------------------------

/** An all-to-all topology that counts its forEachNeighbor calls. */
class CountingFull final : public Topology
{
  public:
    explicit CountingFull(int n) : inner_(n) {}

    int numSites() const override { return inner_.numSites(); }
    void
    forEachNeighbor(PhysQubit site, NeighborFn fn) const override
    {
        ++neighborCalls;
        inner_.forEachNeighbor(site, fn);
    }
    int
    distance(PhysQubit a, PhysQubit b) const override
    {
        return inner_.distance(a, b);
    }
    void
    pathInto(PhysQubit a, PhysQubit b,
             std::vector<PhysQubit> &out) const override
    {
        inner_.pathInto(a, b, out);
    }
    std::pair<double, double>
    coords(PhysQubit site) const override
    {
        return inner_.coords(site);
    }
    std::string name() const override { return "counting-" + inner_.name(); }

    mutable int64_t neighborCalls = 0;

  private:
    FullTopology inner_;
};

TEST(AllToAll, EachSweepExpandsOneSite)
{
    // The first expansion of a sweep on an all-to-all machine queues
    // every site, far more than the visit budget, so one expansion per
    // sweep is all the sweep can use.  Expanding every visited site as
    // well made one compile cost sites x budget neighbour steps per
    // allocation: seconds per compile on full:4096.
    ASSERT_LT(Allocator::visitBudget(SquareConfig::squareLaaOnly()), 2048);
    constexpr int kCalls = 64;
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 1, 1);
    leaf.cnot(leaf.p(0), leaf.a(0));
    auto main = pb.module("main", 1, 0);
    for (int i = 0; i < kCalls; ++i)
        main.call(leaf.id(), {main.p(0)});
    Program prog = pb.build("main");

    Machine m = Machine::fullyConnected(2048);
    auto counting = std::make_unique<CountingFull>(2048);
    const CountingFull &topo = *counting;
    m.topology = std::move(counting);
    // LAA without CER recomputes nothing: one sweep per call.
    CompileResult r =
        compile(prog, m, SquareConfig::squareLaaOnly(), {});
    EXPECT_EQ(r.qubitsUsed, 1 + kCalls);
    EXPECT_LE(topo.neighborCalls, kCalls);
}

} // namespace
} // namespace square
