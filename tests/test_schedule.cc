/**
 * @file
 * Unit tests for the gate scheduler: timing, routing, decomposition.
 */

#include <gtest/gtest.h>

#include "common/logging.h"

#include "schedule/scheduler.h"
#include "sim/statevector.h"

namespace square {
namespace {

TEST(Scheduler, SequentialGatesAdvanceClock)
{
    Machine m = Machine::fullyConnected(4);
    Layout layout(4);
    AncillaHeap heap(4);
    LogicalQubit q = layout.place(0);
    GateScheduler sched(m, layout, heap, nullptr);

    LogicalQubit ops[1] = {q};
    sched.apply(GateKind::X, ops);
    sched.apply(GateKind::X, ops);
    EXPECT_EQ(sched.makespan(), 2 * m.times.oneQubit);
    EXPECT_EQ(sched.stats().totalGates, 2);
    EXPECT_EQ(sched.stats().oneQubitGates, 2);
}

TEST(Scheduler, IndependentGatesRunInParallel)
{
    Machine m = Machine::fullyConnected(4);
    Layout layout(4);
    AncillaHeap heap(4);
    LogicalQubit q0 = layout.place(0);
    LogicalQubit q1 = layout.place(1);
    GateScheduler sched(m, layout, heap, nullptr);

    LogicalQubit a[1] = {q0}, b[1] = {q1};
    sched.apply(GateKind::X, a);
    sched.apply(GateKind::X, b);
    // ASAP scheduling: both at t=0.
    EXPECT_EQ(sched.makespan(), m.times.oneQubit);
}

TEST(Scheduler, DependentGatesSerialize)
{
    Machine m = Machine::fullyConnected(4);
    Layout layout(4);
    AncillaHeap heap(4);
    LogicalQubit q0 = layout.place(0);
    LogicalQubit q1 = layout.place(1);
    LogicalQubit q2 = layout.place(2);
    GateScheduler sched(m, layout, heap, nullptr);

    LogicalQubit g1[2] = {q0, q1}, g2[2] = {q1, q2};
    sched.apply(GateKind::CNOT, g1);
    sched.apply(GateKind::CNOT, g2); // shares q1
    EXPECT_EQ(sched.makespan(), 2 * m.times.twoQubit);
}

TEST(Scheduler, NonAdjacentCnotInsertsSwaps)
{
    Machine m = Machine::nisqLattice(5, 1);
    Layout layout(5);
    AncillaHeap heap(5);
    LogicalQubit q0 = layout.place(0);
    LogicalQubit q4 = layout.place(4);
    VectorTrace trace;
    GateScheduler sched(m, layout, heap, &trace);

    LogicalQubit ops[2] = {q0, q4};
    sched.apply(GateKind::CNOT, ops);
    EXPECT_EQ(sched.stats().swaps, 3); // distance 4 -> 3 swaps
    EXPECT_EQ(sched.stats().twoQubitGates, 1);
    EXPECT_EQ(sched.stats().routedGates, 1);
    // q0 migrated next to q4.
    EXPECT_EQ(layout.siteOf(q0), 3);
    EXPECT_GT(sched.commFactor(), 0.0);
}

TEST(Scheduler, ToffoliDecompositionGateBudget)
{
    Machine m = Machine::nisqLattice(3, 1);
    Layout layout(3);
    AncillaHeap heap(3);
    LogicalQubit a = layout.place(0);
    LogicalQubit b = layout.place(1);
    LogicalQubit c = layout.place(2);
    GateScheduler sched(m, layout, heap, nullptr);

    LogicalQubit ops[3] = {a, b, c};
    sched.apply(GateKind::Toffoli, ops);
    // 15 gates: 7 T/Tdg + 6 CNOT + 2 H (plus any routing swaps).
    EXPECT_EQ(sched.stats().totalGates, 15);
    EXPECT_EQ(sched.stats().tGates, 7);
    EXPECT_EQ(sched.stats().twoQubitGates, 6);
    EXPECT_EQ(sched.stats().toffoliGates, 0);
}

TEST(Scheduler, ToffoliDecompositionIsUnitaryCorrect)
{
    // Verify the Clifford+T decomposition against the macro gate on
    // all 8 basis states using the state-vector simulator.
    for (uint64_t basis = 0; basis < 8; ++basis) {
        Machine m = Machine::fullyConnected(3);
        m.decomposeToffoli = true; // force decomposition
        Layout layout(3);
        AncillaHeap heap(3);
        LogicalQubit q0 = layout.place(0);
        LogicalQubit q1 = layout.place(1);
        LogicalQubit q2 = layout.place(2);
        VectorTrace trace;
        GateScheduler sched(m, layout, heap, &trace);
        LogicalQubit ops[3] = {q0, q1, q2};
        sched.apply(GateKind::Toffoli, ops);

        StateVector decomposed(3);
        decomposed.setBasis(basis);
        for (const TimedGate &g : trace.gates())
            decomposed.apply(g);

        StateVector macro(3);
        macro.setBasis(basis);
        int sites[3] = {0, 1, 2};
        macro.apply(GateKind::Toffoli, sites);

        EXPECT_NEAR(decomposed.fidelityWith(macro), 1.0, 1e-9)
            << "basis " << basis;
    }
}

TEST(Scheduler, MacroToffoliGathersOperandsOnLattice)
{
    Machine m = Machine::nisqLatticeMacro(5, 5);
    Layout layout(25);
    AncillaHeap heap(25);
    LatticeTopology topo(5, 5);
    LogicalQubit a = layout.place(topo.siteAt(0, 0));
    LogicalQubit b = layout.place(topo.siteAt(4, 4));
    LogicalQubit c = layout.place(topo.siteAt(2, 2));
    GateScheduler sched(m, layout, heap, nullptr);

    LogicalQubit ops[3] = {a, b, c};
    sched.apply(GateKind::Toffoli, ops);
    EXPECT_EQ(sched.stats().toffoliGates, 1);
    EXPECT_GT(sched.stats().swaps, 0);
    // Controls ended adjacent to the target.
    int da = topo.distance(layout.siteOf(a), layout.siteOf(c));
    int db = topo.distance(layout.siteOf(b), layout.siteOf(c));
    EXPECT_LE(da, 1);
    EXPECT_LE(db, 1);
}

TEST(Scheduler, BraidMachineUsesBraids)
{
    Machine m = Machine::ftBraid(6, 6);
    Layout layout(36);
    AncillaHeap heap(36);
    LatticeTopology topo(6, 6);
    LogicalQubit a = layout.place(topo.siteAt(0, 0));
    LogicalQubit b = layout.place(topo.siteAt(5, 5));
    GateScheduler sched(m, layout, heap, nullptr);

    LogicalQubit ops[2] = {a, b};
    sched.apply(GateKind::CNOT, ops);
    EXPECT_EQ(sched.stats().swaps, 0);
    EXPECT_EQ(sched.stats().braids, 1);
    // Qubits do not move under braiding.
    EXPECT_EQ(layout.siteOf(a), topo.siteAt(0, 0));
    EXPECT_GT(sched.avgBraidLength(), 0.0);
}

TEST(Scheduler, TraceSinkSeesEveryGate)
{
    Machine m = Machine::nisqLattice(4, 1);
    Layout layout(4);
    AncillaHeap heap(4);
    LogicalQubit q0 = layout.place(0);
    LogicalQubit q3 = layout.place(3);
    VectorTrace trace;
    GateScheduler sched(m, layout, heap, &trace);
    LogicalQubit ops[2] = {q0, q3};
    sched.apply(GateKind::CNOT, ops);
    EXPECT_EQ(static_cast<int64_t>(trace.gates().size()),
              sched.stats().totalGates + sched.stats().swaps);
    // Timing sanity: every gate has positive duration, start >= 0.
    for (const TimedGate &g : trace.gates()) {
        EXPECT_GE(g.start, 0);
        EXPECT_GT(g.duration, 0);
    }
}

} // namespace
} // namespace square
