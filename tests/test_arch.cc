/**
 * @file
 * Unit tests for topologies, layout, and machine descriptions.
 */

#include <gtest/gtest.h>

#include "common/logging.h"

#include "arch/layout.h"
#include "arch/machine.h"
#include "arch/topology.h"

namespace square {
namespace {

TEST(Lattice, NeighborsCornerEdgeCenter)
{
    LatticeTopology t(4, 3);
    EXPECT_EQ(t.numSites(), 12);
    EXPECT_EQ(t.neighbors(0).size(), 2u);              // corner
    EXPECT_EQ(t.neighbors(1).size(), 3u);              // edge
    EXPECT_EQ(t.neighbors(t.siteAt(1, 1)).size(), 4u); // interior
}

TEST(Lattice, ManhattanDistance)
{
    LatticeTopology t(5, 5);
    EXPECT_EQ(t.distance(t.siteAt(0, 0), t.siteAt(4, 4)), 8);
    EXPECT_EQ(t.distance(t.siteAt(2, 2), t.siteAt(2, 2)), 0);
    EXPECT_EQ(t.distance(t.siteAt(1, 2), t.siteAt(2, 2)), 1);
}

TEST(Lattice, PathEndpointsAndLength)
{
    LatticeTopology t(6, 6);
    PhysQubit a = t.siteAt(1, 1), b = t.siteAt(4, 3);
    auto path = t.path(a, b);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    EXPECT_EQ(static_cast<int>(path.size()), t.distance(a, b) + 1);
    // consecutive sites adjacent
    for (size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_EQ(t.distance(path[i], path[i + 1]), 1);
}

TEST(Full, AllPairsAdjacent)
{
    FullTopology t(7);
    for (int i = 0; i < 7; ++i) {
        for (int j = 0; j < 7; ++j) {
            if (i != j) {
                EXPECT_TRUE(t.adjacent(i, j));
                EXPECT_EQ(t.path(i, j).size(), 2u);
            }
        }
    }
    EXPECT_EQ(t.neighbors(3).size(), 6u);
}

TEST(Lattice, OneRowIsAChain)
{
    LatticeTopology lin(9, 1);
    EXPECT_EQ(lin.numSites(), 9);
    EXPECT_EQ(lin.neighbors(0).size(), 1u);
    EXPECT_EQ(lin.neighbors(4).size(), 2u);
}

TEST(Layout, PlaceRemoveSwap)
{
    Layout l(9);
    LogicalQubit q0 = l.place(4);
    LogicalQubit q1 = l.place(5);
    EXPECT_EQ(l.numLive(), 2);
    EXPECT_EQ(l.siteOf(q0), 4);
    EXPECT_EQ(l.qubitAt(5), q1);
    EXPECT_TRUE(l.everUsed(4));
    EXPECT_FALSE(l.everUsed(0));

    l.swapSites(4, 0); // move q0 to a fresh site
    EXPECT_EQ(l.siteOf(q0), 0);
    EXPECT_TRUE(l.isFree(4));
    EXPECT_TRUE(l.everUsed(0));

    l.remove(q0);
    EXPECT_EQ(l.numLive(), 1);
    EXPECT_TRUE(l.isFree(0));
    EXPECT_EQ(l.peakLive(), 2);
    EXPECT_EQ(l.sitesTouched(), 3);
}

TEST(Layout, SwapSitesRangeAndSelfSwap)
{
    Layout l(4);
    LogicalQubit q = l.place(0);
    l.swapSites(2, 2); // no-op
    EXPECT_EQ(l.siteOf(q), 0);
    EXPECT_EQ(l.sitesTouched(), 1);
    EXPECT_THROW(l.swapSites(0, 4), PanicError);
    EXPECT_THROW(l.swapSites(-1, 0), PanicError);
    EXPECT_EQ(l.siteOf(q), 0);
}

TEST(Layout, PanicsOnMisuse)
{
    Layout l(4);
    LogicalQubit q = l.place(1);
    EXPECT_THROW(l.place(1), PanicError); // occupied
    l.remove(q);
    EXPECT_THROW(l.siteOf(q), PanicError); // not live
}

TEST(Machine, Factories)
{
    Machine nisq = Machine::nisqLattice(5, 4);
    EXPECT_EQ(nisq.numSites(), 20);
    EXPECT_EQ(nisq.comm, CommModel::Swap);
    EXPECT_TRUE(nisq.decomposeToffoli);

    Machine full = Machine::fullyConnected(11);
    EXPECT_EQ(full.comm, CommModel::None);
    EXPECT_FALSE(full.decomposeToffoli);

    Machine ft = Machine::ftBraid(6, 6, 12);
    EXPECT_EQ(ft.comm, CommModel::Braid);
    EXPECT_EQ(ft.times.tGate, 12);
}

TEST(Machine, GateDurations)
{
    GateTimes t;
    EXPECT_EQ(t.durationFor(GateKind::X), t.oneQubit);
    EXPECT_EQ(t.durationFor(GateKind::T), t.tGate);
    EXPECT_EQ(t.durationFor(GateKind::CNOT), t.twoQubit);
    EXPECT_EQ(t.durationFor(GateKind::Swap), t.swapGate);
    EXPECT_EQ(t.durationFor(GateKind::Toffoli), t.toffoli);
}

} // namespace
} // namespace square
