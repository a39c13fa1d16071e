/**
 * @file
 * Unit tests for AQV accounting and the CER cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.h"

#include "core/cer.h"
#include "metrics/aqv.h"

namespace square {
namespace {

TEST(Aqv, SingleSegment)
{
    AqvTracker t;
    t.onAlloc(0, 10);
    t.onFree(0, 25);
    EXPECT_EQ(t.aqv(), 15);
}

TEST(Aqv, ReuseAccumulatesSegments)
{
    AqvTracker t;
    t.onAlloc(0, 0);
    t.onFree(0, 10);
    t.onAlloc(0, 50); // same qubit id reused later
    t.onFree(0, 55);
    EXPECT_EQ(t.aqv(), 15);
}

TEST(Aqv, HeapTimeExcluded)
{
    // Two qubits, one parked on the heap between uses: the idle window
    // must not count.
    AqvTracker t;
    t.onAlloc(0, 0);
    t.onAlloc(1, 0);
    t.onFree(1, 5);    // q1 reclaimed early
    t.onAlloc(2, 100); // new logical qubit later (reused site)
    t.onFree(2, 110);
    t.finish(200); // q0 lives to the end
    EXPECT_EQ(t.aqv(), 200 + 5 + 10);
}

TEST(Aqv, FinishClosesOpenSegments)
{
    AqvTracker t;
    t.onAlloc(0, 10);
    t.onAlloc(1, 20);
    t.finish(100);
    EXPECT_EQ(t.aqv(), 90 + 80);
    // Closed: allocating the same qubit again does not panic.
    EXPECT_NO_THROW(t.onAlloc(0, 100));
}

TEST(Aqv, UsageCurveStepsAndPeak)
{
    AqvTracker t;
    t.onAlloc(0, 0);
    t.onAlloc(1, 5);
    t.onAlloc(2, 5);
    t.onFree(1, 8);
    t.onFree(2, 9);
    t.onFree(0, 12);
    auto curve = t.usageCurve();
    ASSERT_GE(curve.size(), 4u);
    EXPECT_EQ(curve.front().live, 1);
    EXPECT_EQ(curve.back().live, 0);
    int peak = 0;
    for (const UsagePoint &p : curve)
        peak = std::max(peak, p.live);
    EXPECT_EQ(peak, 3);
}

TEST(Aqv, MisusePanics)
{
    AqvTracker t;
    EXPECT_THROW(t.onFree(0, 5), PanicError);
    t.onAlloc(0, 5);
    EXPECT_THROW(t.onAlloc(0, 6), PanicError);
}

TEST(Cer, ReclaimWhenHoldingIsExpensive)
{
    SquareConfig cfg = SquareConfig::square();
    CerInputs in;
    in.numActive = 10;
    in.numAncilla = 8;
    in.uncomputeGates = 20;
    in.gatesToParentUncompute = 100000; // parent is far away
    in.depth = 1;
    auto d = cerDecide(cfg, in);
    EXPECT_TRUE(d.reclaim);
    EXPECT_LE(d.c1, d.c0);
}

TEST(Cer, KeepWhenUncomputeIsExpensive)
{
    SquareConfig cfg = SquareConfig::square();
    CerInputs in;
    in.numActive = 10;
    in.numAncilla = 1;
    in.uncomputeGates = 100000;
    in.gatesToParentUncompute = 10;
    in.depth = 1;
    auto d = cerDecide(cfg, in);
    EXPECT_FALSE(d.reclaim);
}

TEST(Cer, DepthDiscouragesReclaim)
{
    SquareConfig cfg = SquareConfig::square();
    CerInputs in;
    in.numActive = 4;
    in.numAncilla = 4;
    in.uncomputeGates = 50;
    in.gatesToParentUncompute = 500;
    in.depth = 1;
    auto shallow = cerDecide(cfg, in);
    in.depth = 10;
    auto deep = cerDecide(cfg, in);
    EXPECT_GT(deep.c1, shallow.c1);
    // 2^10 makes uncompute prohibitive here.
    EXPECT_TRUE(shallow.reclaim);
    EXPECT_FALSE(deep.reclaim);
}

TEST(Cer, AblationTogglesChangeCosts)
{
    CerInputs in;
    in.numActive = 5;
    in.numAncilla = 5;
    in.uncomputeGates = 100;
    in.gatesToParentUncompute = 100;
    in.depth = 3;
    in.commFactor = 2.0;

    SquareConfig full = SquareConfig::square();
    SquareConfig no_level = full;
    no_level.useLevelFactor = false;
    SquareConfig no_area = full;
    no_area.useAreaExpansion = false;
    SquareConfig no_comm = full;
    no_comm.useCommFactor = false;

    auto d_full = cerDecide(full, in);
    EXPECT_LT(cerDecide(no_level, in).c1, d_full.c1);
    EXPECT_LT(cerDecide(no_area, in).c0, d_full.c0);
    EXPECT_LT(cerDecide(no_comm, in).c1, d_full.c1);
}

TEST(Cer, NoLocalityDropsAreaTerm)
{
    SquareConfig cfg = SquareConfig::square();
    CerInputs in;
    in.numActive = 5;
    in.numAncilla = 20;
    in.uncomputeGates = 100;
    in.gatesToParentUncompute = 100;
    in.depth = 0;
    in.hasLocality = true;
    auto with = cerDecide(cfg, in);
    in.hasLocality = false;
    auto without = cerDecide(cfg, in);
    EXPECT_GT(with.c0, without.c0);
}

} // namespace
} // namespace square
