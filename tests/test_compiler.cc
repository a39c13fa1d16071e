/**
 * @file
 * Integration tests of the SQUARE compiler: executor semantics,
 * policies, AQV accounting, and functional correctness of compiled
 * traces against the reference interpreter.
 *
 * The central property: for every benchmark, machine, and policy, the
 * compiled trace (replayed by the classical simulator)
 *   (a) never reclaims a non-|0> site, and
 *   (b) produces the reference interpreter's primary outputs.
 */

#include <gtest/gtest.h>

#include "common/logging.h"

#include "arch/machine.h"
#include "core/compiler.h"
#include "sim/classical.h"
#include "sim/reference.h"
#include "workloads/arith.h"
#include "workloads/boolean.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace square {
namespace {

/** Compile on a macro-gate machine and functionally verify. */
void
verifyFunctional(const Program &prog, const Machine &machine,
                 const SquareConfig &cfg, uint64_t input)
{
    // Inputs must be set before gates run; primaries are placed first,
    // deterministically, so compile once to learn the initial sites...
    CompileResult probe = compile(prog, machine, cfg, {});
    ClassicalSim sim2(machine.numSites());
    for (size_t i = 0; i < probe.primaryInitialSites.size(); ++i)
        sim2.setBit(probe.primaryInitialSites[i], (input >> i) & 1);
    CompileOptions opts2;
    opts2.extraSink = &sim2;
    CompileResult r = compile(prog, machine, cfg, opts2);

    EXPECT_EQ(sim2.reclaimViolations(), 0)
        << cfg.name << " on " << machine.label
        << ": reclaimed a dirty qubit";

    uint64_t expected = simulateReferenceBits(prog, input);
    uint64_t got = 0;
    for (size_t i = 0; i < r.primaryFinalSites.size(); ++i) {
        if (sim2.bit(r.primaryFinalSites[i]))
            got |= uint64_t{1} << i;
    }
    EXPECT_EQ(got, expected)
        << cfg.name << " on " << machine.label << " input=" << input;
}

std::vector<SquareConfig>
allPolicies()
{
    return {SquareConfig::eager(), SquareConfig::lazy(),
            SquareConfig::squareLaaOnly(), SquareConfig::square()};
}

TEST(Compiler, Adder4AllPoliciesFunctional)
{
    Program prog = makeAdder(4);
    for (const auto &cfg : allPolicies()) {
        Machine full = Machine::fullyConnected(64);
        // ctrl=1, a=5, b=9 -> b becomes 14.
        uint64_t input = 1 | (5u << 1) | (9u << 5);
        verifyFunctional(prog, full, cfg, input);

        Machine lattice = Machine::nisqLatticeMacro(8, 8);
        verifyFunctional(prog, lattice, cfg, input);
    }
}

TEST(Compiler, Rd53AllPoliciesFunctional)
{
    Program prog = makeRd53();
    for (const auto &cfg : allPolicies()) {
        Machine lattice = Machine::nisqLatticeMacro(6, 6);
        verifyFunctional(prog, lattice, cfg, 0b10111); // weight 4
    }
}

TEST(Compiler, SyntheticDeepNestingFunctional)
{
    SynthParams p = belleSmallParams();
    Program prog = makeSynthetic("belle_test", p);
    for (const auto &cfg : allPolicies()) {
        Machine lattice = Machine::nisqLatticeMacro(8, 8);
        verifyFunctional(prog, lattice, cfg, 0b101);
    }
}

TEST(Compiler, EagerReclaimsEverything)
{
    Program prog = makeAdder(4);
    Machine m = Machine::fullyConnected(64);
    CompileResult r = compile(prog, m, SquareConfig::eager(), {});
    EXPECT_GT(r.reclaimCount, 0);
    EXPECT_EQ(r.skipCount, 0);
}

TEST(Compiler, LazyNeverReclaims)
{
    Program prog = makeAdder(4);
    Machine m = Machine::fullyConnected(64);
    CompileResult r = compile(prog, m, SquareConfig::lazy(), {});
    EXPECT_EQ(r.reclaimCount, 0);
    EXPECT_GT(r.skipCount, 0);
}

TEST(Compiler, EagerUsesFewerQubitsLazyFewerGates)
{
    // The multiplier's repeated shift-adds give Eager's heap reuse a
    // chance to pay off in footprint (a single adder call would not).
    Program prog = makeMultiplier(6);
    Machine me = Machine::fullyConnected(256);
    CompileResult eager = compile(prog, me, SquareConfig::eager(), {});
    Machine ml = Machine::fullyConnected(256);
    CompileResult lazy = compile(prog, ml, SquareConfig::lazy(), {});

    EXPECT_LT(eager.qubitsUsed, lazy.qubitsUsed);
    EXPECT_LT(lazy.gates, eager.gates);
}

TEST(Compiler, SquareBetweenEagerAndLazyInQubits)
{
    Program prog = makeMultiplier(6);
    auto run = [&](SquareConfig cfg) {
        Machine m = Machine::nisqLattice(16, 16);
        return compile(prog, m, cfg, {});
    };
    CompileResult eager = run(SquareConfig::eager());
    CompileResult lazy = run(SquareConfig::lazy());
    CompileResult sq = run(SquareConfig::square());

    EXPECT_LE(eager.qubitsUsed, sq.qubitsUsed);
    EXPECT_LE(sq.qubitsUsed, lazy.qubitsUsed);
}

TEST(Compiler, TraceRecordingMatchesGateCounts)
{
    Program prog = makeAdder(4);
    Machine m = Machine::fullyConnected(64);
    VectorTrace schedule;
    CompileOptions opts;
    opts.extraSink = &schedule;
    CompileResult r = compile(prog, m, SquareConfig::square(), opts);
    EXPECT_EQ(static_cast<int64_t>(schedule.gates().size()),
              r.gates + r.swaps);
}

TEST(Compiler, AqvPositiveAndBounded)
{
    Program prog = makeAdder(4);
    Machine m = Machine::nisqLattice(8, 8);
    CompileResult r = compile(prog, m, SquareConfig::square(), {});
    EXPECT_GT(r.aqv, 0);
    // AQV cannot exceed peak-live x makespan.
    EXPECT_LE(r.aqv, static_cast<int64_t>(r.peakLive) * r.depth);
    EXPECT_GT(r.depth, 0);
    EXPECT_GT(r.peakLive, 0);
}

TEST(Compiler, UsageCurveConsistent)
{
    Program prog = makeAdder(4);
    Machine m = Machine::nisqLattice(8, 8);
    CompileResult r = compile(prog, m, SquareConfig::eager(), {});
    ASSERT_FALSE(r.usageCurve.empty());
    // Curve starts when primaries allocate and ends at zero live.
    EXPECT_EQ(r.usageCurve.back().live, 0);
    int peak = 0;
    for (const auto &pt : r.usageCurve) {
        EXPECT_GE(pt.live, 0);
        peak = std::max(peak, pt.live);
    }
    // Time-axis peak tracks (but need not equal) program-order peak.
    EXPECT_GT(peak, 0);
    EXPECT_LE(std::abs(peak - r.peakLive), 4);
}

TEST(Compiler, FitsExactMachineOrThrows)
{
    Program prog = makeAdder(8);
    // Lazy on a tiny machine must not fit.
    Machine tiny = Machine::fullyConnected(18);
    EXPECT_THROW(compile(prog, tiny, SquareConfig::lazy(), {}),
                 FatalError);
    // Eager reclaims and fits the same machine... if it has room for
    // primaries + one adder frame.
    Machine small = Machine::fullyConnected(32);
    EXPECT_NO_THROW(compile(prog, small, SquareConfig::eager(), {}));
}

TEST(Compiler, DeterministicAcrossRuns)
{
    Program prog = makeMultiplier(4);
    auto run = [&] {
        Machine m = Machine::nisqLattice(12, 12);
        return compile(prog, m, SquareConfig::square(), {});
    };
    CompileResult a = run();
    CompileResult b = run();
    EXPECT_EQ(a.aqv, b.aqv);
    EXPECT_EQ(a.gates, b.gates);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.qubitsUsed, b.qubitsUsed);
}

TEST(Compiler, MeasureResetGroundsEverything)
{
    Program prog = makeMultiplier(4);
    Machine m = Machine::nisqLatticeMacro(12, 12);
    CompileResult probe =
        compile(prog, m, SquareConfig::measureReset(50), {});
    ClassicalSim sim(m.numSites());
    uint64_t input = 1 | (5u << 1) | (6u << 5);
    for (size_t i = 0; i < probe.primaryInitialSites.size(); ++i)
        sim.setBit(probe.primaryInitialSites[i], (input >> i) & 1);
    CompileOptions opts;
    opts.extraSink = &sim;
    CompileResult r =
        compile(prog, m, SquareConfig::measureReset(50), opts);

    EXPECT_GT(sim.resets(), 0);
    EXPECT_EQ(sim.reclaimViolations(), 0);
    // Outputs still correct on classical-basis inputs.
    uint64_t expected = simulateReferenceBits(prog, input);
    uint64_t got = 0;
    for (size_t i = 0; i < r.primaryFinalSites.size(); ++i) {
        if (sim.bit(r.primaryFinalSites[i]))
            got |= uint64_t{1} << i;
    }
    EXPECT_EQ(got, expected);
    // No uncompute gates: forward gate count equals Lazy's.
    Machine m2 = Machine::nisqLatticeMacro(12, 12);
    CompileResult lazy = compile(prog, m2, SquareConfig::lazy(), {});
    EXPECT_EQ(r.gates, lazy.gates);
    // But footprint matches Eager-like reuse.
    EXPECT_LT(r.peakLive, lazy.peakLive);
}

TEST(Compiler, MeasureResetLatencyStretchesDepth)
{
    Program prog = makeMultiplier(4);
    Machine m1 = Machine::nisqLatticeMacro(12, 12);
    CompileResult fast =
        compile(prog, m1, SquareConfig::measureReset(2), {});
    Machine m2 = Machine::nisqLatticeMacro(12, 12);
    CompileResult slow =
        compile(prog, m2, SquareConfig::measureReset(5000), {});
    EXPECT_GT(slow.depth, fast.depth);
    EXPECT_GT(slow.aqv, fast.aqv);
}

TEST(Compiler, FtMachineCompiles)
{
    Program prog = makeAdder(4);
    Machine ft = Machine::ftBraid(8, 8);
    CompileResult r = compile(prog, ft, SquareConfig::square(), {});
    EXPECT_GT(r.gates, 0);
    EXPECT_EQ(r.swaps, 0); // braids, not swaps
    EXPECT_GT(r.sched.braids, 0);
}

// Property sweep: every registry NISQ benchmark is functionally correct
// under every policy.
class NisqBenchmarkPolicy
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(NisqBenchmarkPolicy, FunctionalOnLattice)
{
    const auto &[name, policy_idx] = GetParam();
    Program prog = makeBenchmark(name);
    SquareConfig cfg = allPolicies()[static_cast<size_t>(policy_idx)];
    Machine m = Machine::nisqLatticeMacro(7, 7);
    verifyFunctional(prog, m, cfg, 0b1011);
}

INSTANTIATE_TEST_SUITE_P(
    AllNisq, NisqBenchmarkPolicy,
    ::testing::Combine(
        ::testing::Values("RD53", "6SYM", "2OF5", "ADDER4", "Jasmine-s",
                          "Elsa-s", "Belle-s"),
        ::testing::Range(0, 4)),
    [](const auto &info) {
        auto name = std::get<0>(info.param);
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_p" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace square
