/**
 * @file
 * Quantum-level validation: compiled schedules replayed on the dense
 * state-vector simulator with superposition inputs.
 *
 * The classical functional tests cannot see phases or entanglement;
 * these tests verify the quantum claims behind uncomputation:
 *
 *  - an uncomputed ancilla is exactly |0> and disentangled even when
 *    the data registers are in superposition;
 *  - skipping uncomputation (Lazy) leaves the ancilla entangled with
 *    the data (which is precisely why garbage cannot simply be
 *    reused);
 *  - the compiled schedule acting on a superposition agrees with the
 *    ideal circuit amplitude by amplitude.
 */

#include <gtest/gtest.h>

#include "common/logging.h"

#include <cmath>

#include "arch/machine.h"
#include "core/compiler.h"
#include "ir/builder.h"
#include "sim/statevector.h"

namespace square {
namespace {

/**
 * main(q0, q1, q2): Store { H(q0); X(q1); call f(q0, q1, q2); }
 * f(a, b, out) with one ancilla: Compute { Toffoli(a, b, anc) },
 * Store { CNOT(anc, out) }, Uncompute auto.
 *
 * On input |000>, the state before f is (|0>+|1>)/sqrt2 (x) |1>;
 * after f, out = a AND b = a, giving (|0,1,0> + |1,1,1>)/sqrt2 with
 * the ancilla |0> iff it was uncomputed.
 */
Program
makeSuperpositionProgram()
{
    ProgramBuilder pb;
    auto f = pb.module("f", 3, 1);
    f.toffoli(f.p(0), f.p(1), f.a(0));
    f.inStore().cnot(f.a(0), f.p(2));
    auto main = pb.module("main", 3, 0);
    main.inStore()
        .h(main.p(0))
        .x(main.p(1))
        .call(f.id(), {main.p(0), main.p(1), main.p(2)});
    return pb.build("main");
}

/** A compile's result and the schedule a VectorTrace recorded. */
struct Recorded
{
    CompileResult r;
    VectorTrace schedule;
};

Recorded
compileRecorded(const Program &prog, const Machine &m,
                const SquareConfig &cfg)
{
    Recorded out;
    CompileOptions opts;
    opts.extraSink = &out.schedule;
    out.r = compile(prog, m, cfg, opts);
    return out;
}

/** Replay a recorded schedule on a state vector over the machine sites. */
StateVector
replay(const Recorded &rec, int num_sites)
{
    StateVector sv(num_sites);
    for (const TimedGate &g : rec.schedule.gates())
        sv.apply(g);
    return sv;
}

TEST(Quantum, UncomputedAncillaDisentangledUnderSuperposition)
{
    Program prog = makeSuperpositionProgram();
    Machine m = Machine::fullyConnected(5);
    const Recorded rec = compileRecorded(prog, m, SquareConfig::eager());
    const CompileResult &r = rec.r;
    ASSERT_EQ(r.reclaimCount, 1);

    StateVector sv = replay(rec, 5);
    // Primary sites hold the Bell-like state; every other site is |0>.
    for (int site = 0; site < 5; ++site) {
        bool is_primary = false;
        for (PhysQubit p : r.primaryFinalSites)
            is_primary |= (p == site);
        if (!is_primary) {
            EXPECT_TRUE(sv.isZero(site)) << "site " << site;
        }
    }

    // Amplitudes: |q0 q1 q2> in (|010> + |111>)/sqrt2 mapped to sites.
    uint64_t basis_a = uint64_t{1} << r.primaryFinalSites[1];
    uint64_t basis_b = (uint64_t{1} << r.primaryFinalSites[0]) |
                       (uint64_t{1} << r.primaryFinalSites[1]) |
                       (uint64_t{1} << r.primaryFinalSites[2]);
    EXPECT_NEAR(std::norm(sv.amp(basis_a)), 0.5, 1e-9);
    EXPECT_NEAR(std::norm(sv.amp(basis_b)), 0.5, 1e-9);
}

TEST(Quantum, LazyLeavesAncillaEntangled)
{
    Program prog = makeSuperpositionProgram();
    Machine m = Machine::fullyConnected(5);
    const Recorded rec = compileRecorded(prog, m, SquareConfig::lazy());
    const CompileResult &r = rec.r;
    ASSERT_EQ(r.reclaimCount, 0);

    StateVector sv = replay(rec, 5);
    // The garbage ancilla carries a copy of q0: P(1) = 1/2, entangled.
    int garbage_site = -1;
    for (int site = 0; site < 5; ++site) {
        bool is_primary = false;
        for (PhysQubit p : r.primaryFinalSites)
            is_primary |= (p == site);
        if (!is_primary && sv.probOne(site) > 0.25)
            garbage_site = site;
    }
    ASSERT_NE(garbage_site, -1) << "expected an entangled garbage qubit";
    EXPECT_NEAR(sv.probOne(garbage_site), 0.5, 1e-9);
}

TEST(Quantum, PolicyDoesNotChangePrimaryMarginals)
{
    // Whatever the reclamation policy, the reduced state on the
    // primaries is identical (garbage is only ever entangled as a
    // function of data controls).  Compare Z-basis marginals.
    Program prog = makeSuperpositionProgram();
    double pl[3], pe[3];
    {
        Machine m = Machine::fullyConnected(5);
        const Recorded rec = compileRecorded(prog, m, SquareConfig::lazy());
        StateVector sv = replay(rec, 5);
        for (int i = 0; i < 3; ++i)
            pl[i] = sv.probOne(
                rec.r.primaryFinalSites[static_cast<size_t>(i)]);
    }
    {
        Machine m = Machine::fullyConnected(5);
        const Recorded rec = compileRecorded(prog, m, SquareConfig::eager());
        StateVector sv = replay(rec, 5);
        for (int i = 0; i < 3; ++i)
            pe[i] = sv.probOne(
                rec.r.primaryFinalSites[static_cast<size_t>(i)]);
    }
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(pl[i], pe[i], 1e-9) << "qubit " << i;
}

TEST(Quantum, DecomposedScheduleMatchesMacroOnLattice)
{
    // The same program compiled with Clifford+T decomposition and with
    // macro Toffolis must produce the same final state on the
    // primaries (swap routing included).  Use a basis input to avoid
    // phase-convention differences on garbage.
    ProgramBuilder pb;
    auto f = pb.module("f", 3, 1);
    f.toffoli(f.p(0), f.p(1), f.a(0));
    f.inStore().cnot(f.a(0), f.p(2));
    auto main = pb.module("main", 3, 0);
    main.inStore()
        .x(main.p(0))
        .x(main.p(1))
        .call(f.id(), {main.p(0), main.p(1), main.p(2)});
    Program prog = pb.build("main");

    auto run = [&](Machine machine) {
        const Recorded rec =
            compileRecorded(prog, machine, SquareConfig::eager());
        StateVector sv = replay(rec, machine.numSites());
        uint64_t expect = 0;
        for (PhysQubit p : rec.r.primaryFinalSites)
            expect |= uint64_t{1} << p;
        return std::norm(sv.amp(expect));
    };

    EXPECT_NEAR(run(Machine::nisqLattice(2, 3)), 1.0, 1e-9);
    EXPECT_NEAR(run(Machine::nisqLatticeMacro(2, 3)), 1.0, 1e-9);
}

} // namespace
} // namespace square
