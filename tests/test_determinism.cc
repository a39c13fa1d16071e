/**
 * @file
 * Golden-value determinism regression for the compile hot path.
 *
 * The zero-allocation refactor (arena-backed executor, allocation-free
 * topology/routing iteration, lattice-specialized LAA sweep) must be
 * behavior-preserving: compilation is a deterministic function of
 * (program, machine, policy).  These tests pin the headline
 * CompileResult fields for the two largest workloads under all three
 * paper policies on the boundary-scale lattice machine, so any future
 * change to the allocator/router/scheduler stack that alters output is
 * caught immediately.
 *
 * The golden values were captured from the pre-refactor seed build and
 * verified bit-identical against the refactored hot path.  Five
 * programs are pinned on the macro-Toffoli NISQ lattice too, the one
 * machine whose scheduler gathers three operands around a target with
 * SwapRouter::moveTo.
 *
 * The fault-tolerant goldens pin the braid router the same way: every
 * Fig. 10 program under SQUARE (plus LAZY and EAGER on the two largest)
 * on its boundary-scale ftBraid machine, including braid and conflict
 * counts and the exact average braid length.  Five programs are pinned
 * on the macro-Toffoli FT machine as well, whose 10-cycle Toffoli
 * braids beside 2-cycle CNOT braids exercise stalls and detours that a
 * single braid window does not.
 *
 * The reclaim-policy goldens pin every Free-point path of the executor:
 * SQUARE's cost model, LAA's keep-everything, measurement-and-reset and
 * two forced decision scripts, each with its reclaim, skip and
 * uncompute-gate counts, on a NISQ lattice and on a braid machine, plus
 * one program whose explicit Uncompute block calls a child.
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/policy.h"
#include "ir/builder.h"
#include "workloads/registry.h"

namespace square {
namespace {

struct Golden
{
    const char *workload;
    const char *policy;
    int64_t gates;
    int64_t swaps;
    int64_t depth;
    int qubitsUsed;
    int reclaimCount;
    int64_t aqv;
};

// Captured from the seed build (pre-refactor) at boundary scale; the
// depths were added later, from the build before the swap path walked
// its chains in closed form.
const Golden kGoldens[] = {
    {"SHA2", "LAZY", 27140, 48687, 79826, 855, 0, 47242845},
    {"SHA2", "EAGER", 90892, 78230, 229109, 465, 137, 80170853},
    {"SHA2", "SQUARE", 27140, 39415, 70494, 791, 80, 38532394},
    {"SALSA20", "LAZY", 8832, 8485, 25510, 281, 0, 4252901},
    {"SALSA20", "EAGER", 17536, 7475, 44783, 87, 96, 3082684},
    {"SALSA20", "SQUARE", 8832, 5922, 19557, 200, 75, 2628073},
};

// Captured on Machine::nisqLatticeMacro(boundaryEdge, boundaryEdge)
// before the swap path walked its chains in closed form.  Only this
// machine gathers macro Toffoli operands (SwapRouter::moveTo).
const Golden kMacroNisqGoldens[] = {
    {"ADDER32", "SQUARE", 224, 905, 2858, 115, 2, 278558},
    {"MODEXP", "SQUARE", 972, 2808, 11070, 120, 41, 825653},
    {"SALSA20", "SQUARE", 1664, 3957, 11804, 202, 75, 1581654},
    {"Jasmine", "SQUARE", 642, 2573, 6858, 159, 4, 538615},
    {"Belle", "SQUARE", 199, 653, 1100, 323, 7, 222387},
};

/** Forced script that reclaims every @p period-th Free decision. */
SquareConfig
forcedEvery(int period)
{
    std::vector<bool> script(64);
    for (size_t i = 0; i < script.size(); ++i)
        script[i] = i % static_cast<size_t>(period) == 0;
    return SquareConfig::forced(std::move(script));
}

SquareConfig
policyByName(const std::string &name)
{
    if (name == "LAZY")
        return SquareConfig::lazy();
    if (name == "EAGER")
        return SquareConfig::eager();
    if (name == "LAA")
        return SquareConfig::squareLaaOnly();
    if (name == "M&R(100)")
        return SquareConfig::measureReset(100);
    if (name == "FORCED/2")
        return forcedEvery(2);
    if (name == "FORCED/3")
        return forcedEvery(3);
    return SquareConfig::square();
}

/** Compile each golden on make(boundaryEdge, boundaryEdge) and compare. */
void
expectNisqGoldens(std::span<const Golden> goldens,
                  Machine (*make)(int width, int height))
{
    for (const Golden &g : goldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.policy);
        const BenchmarkInfo &info = findBenchmark(g.workload);
        Program prog = info.build();
        Machine m = make(info.boundaryEdge, info.boundaryEdge);
        CompileResult r = compile(prog, m, policyByName(g.policy), {});
        EXPECT_EQ(r.gates, g.gates);
        EXPECT_EQ(r.swaps, g.swaps);
        EXPECT_EQ(r.depth, g.depth);
        EXPECT_EQ(r.qubitsUsed, g.qubitsUsed);
        EXPECT_EQ(r.reclaimCount, g.reclaimCount);
        EXPECT_EQ(r.aqv, g.aqv);
    }
}

TEST(Determinism, GoldenCompileResults)
{
    expectNisqGoldens(kGoldens, Machine::nisqLattice);
}

TEST(Determinism, GoldenMacroToffoliNisqResults)
{
    expectNisqGoldens(kMacroNisqGoldens, Machine::nisqLatticeMacro);
}

struct FtGolden
{
    const char *workload;
    const char *policy;
    int64_t gates;
    int64_t depth;
    int64_t aqv;
    int qubitsUsed;
    int reclaimCount;
    int64_t braids;
    int64_t braidConflicts;
    double avgBraidLength;
};

// Captured on Machine::ftBraid(boundaryEdge, boundaryEdge) before the
// braid router's reservation fast paths (busy-until bound, lazy
// vertical L path, goal-at-enqueue detour BFS) landed.
const FtGolden kFtGoldens[] = {
    {"ADDER32", "SQUARE", 1568, 3542, 345826, 98, 2, 704, 60,
     12.911931818181818},
    {"ADDER64", "SQUARE", 3136, 7033, 1361832, 194, 2, 1408, 124,
     17.542613636363637},
    {"MUL32", "SQUARE", 33102, 59149, 8934575, 218, 53, 14508, 506,
     16.220016542597186},
    {"MUL64", "SQUARE", 131785, 230908, 68090499, 468, 112, 57706, 1504,
     21.833916750424567},
    {"MODEXP", "SQUARE", 7398, 15192, 1122940, 104, 41, 3254, 135,
     11.767670559311616},
    {"SHA2", "LAZY", 27140, 43261, 24862021, 784, 0, 12672, 568,
     36.065340909090907},
    {"SHA2", "EAGER", 90892, 224472, 74136748, 369, 137, 42304, 2056,
     30.872730711043872},
    {"SHA2", "SQUARE", 27140, 43484, 23239807, 710, 80, 12672, 710,
     32.694760101010104},
    {"SALSA20", "LAZY", 8832, 6636, 1124300, 256, 0, 4224, 171,
     18.00284090909091},
    {"SALSA20", "EAGER", 17536, 56400, 3883158, 69, 96, 8320, 290,
     12.874278846153846},
    {"SALSA20", "SQUARE", 8832, 6840, 955998, 199, 75, 4224, 156,
     13.486268939393939},
    {"Jasmine", "SQUARE", 3428, 4857, 353759, 146, 4, 1483, 174,
     10.830074173971679},
    {"Elsa", "SQUARE", 6543, 7492, 782852, 167, 0, 2799, 473,
     15.021436227224008},
    {"Belle", "SQUARE", 1053, 382, 84886, 307, 7, 474, 92,
     8.5822784810126578},
};

// Captured on Machine::ftBraidMacro(boundaryEdge, boundaryEdge) before
// the braid router's branch-free cell probe, closed-form L paths and
// division-free detour BFS landed.  Only this machine mixes 2-cycle
// CNOT braids with 10-cycle Toffoli braids.
const FtGolden kMacroFtGoldens[] = {
    {"ADDER32", "SQUARE", 224, 870, 84940, 98, 2, 320, 119, 13.71875},
    {"MODEXP", "SQUARE", 972, 3857, 286228, 104, 41, 1418, 614,
     13.108603667136812},
    {"SALSA20", "SQUARE", 1664, 1688, 237192, 199, 75, 2176, 742,
     13.953125},
    {"Jasmine", "SQUARE", 642, 1334, 93791, 146, 4, 687, 327,
     12.033478893740902},
    {"Belle", "SQUARE", 199, 120, 26871, 307, 7, 230, 123,
     9.1391304347826079},
};

/** Compile each golden on make(boundaryEdge, boundaryEdge) and compare. */
void
expectFtGoldens(std::span<const FtGolden> goldens,
                Machine (*make)(int width, int height, int t_latency))
{
    for (const FtGolden &g : goldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.policy);
        const BenchmarkInfo &info = findBenchmark(g.workload);
        Program prog = info.build();
        Machine m = make(info.boundaryEdge, info.boundaryEdge,
                         /*t_latency=*/10);
        CompileResult r = compile(prog, m, policyByName(g.policy), {});
        EXPECT_EQ(r.gates, g.gates);
        EXPECT_EQ(r.depth, g.depth);
        EXPECT_EQ(r.aqv, g.aqv);
        EXPECT_EQ(r.qubitsUsed, g.qubitsUsed);
        EXPECT_EQ(r.reclaimCount, g.reclaimCount);
        EXPECT_EQ(r.sched.braids, g.braids);
        EXPECT_EQ(r.sched.braidConflicts, g.braidConflicts);
        EXPECT_EQ(r.avgBraidLength, g.avgBraidLength);
    }
}

TEST(Determinism, GoldenFaultTolerantCompileResults)
{
    expectFtGoldens(kFtGoldens, Machine::ftBraid);
}

TEST(Determinism, GoldenMacroToffoliFtResults)
{
    expectFtGoldens(kMacroFtGoldens, Machine::ftBraidMacro);
}

/**
 * A program whose explicit Uncompute block meets every Free-point path.
 * `mark` has an explicit block and calls `copy` in its compute block, so
 * `copy` is forced to reclaim; `mix` has none and calls `mark` in its
 * compute block, so `mix`'s uncompute consumes a kept `mark` through
 * the explicit block and recomputes a reclaimed one.
 */
Program
makeExplicitUncomputeProgram()
{
    ProgramBuilder pb;
    // copy: p1 ^= p0 through its own ancilla.
    auto copy = pb.module("copy", 2, 1);
    copy.cnot(copy.p(0), copy.a(0));
    copy.inStore().cnot(copy.a(0), copy.p(1));
    // mark: a0 = p0 through copy; stores p2 ^= a0 & p1.
    auto mark = pb.module("mark", 3, 1);
    mark.call(copy.id(), {mark.p(0), mark.a(0)});
    mark.inStore().toffoli(mark.a(0), mark.p(1), mark.p(2));
    mark.inUncompute().cnot(mark.p(0), mark.a(0));
    // mix: a0 = p0, a1 = a0 & p1 through mark; stores p2 ^= a1.
    auto mix = pb.module("mix", 3, 2);
    mix.cnot(mix.p(0), mix.a(0));
    mix.call(mark.id(), {mix.a(0), mix.p(1), mix.a(1)});
    mix.inStore().cnot(mix.a(1), mix.p(2));
    auto main = pb.module("main", 4, 0);
    main.inStore()
        .call(mix.id(), {main.p(0), main.p(1), main.p(2)})
        .call(mix.id(), {main.p(1), main.p(2), main.p(3)});
    return pb.build("main");
}

struct PolicyGolden
{
    const char *workload; ///< registry name, or "explicit"
    const char *machine;  ///< "lattice" or "ft"
    const char *policy;
    int64_t gates;
    int64_t depth;
    int64_t aqv;
    int reclaimCount;
    int skipCount;
    int64_t uncomputeIrGates;
};

// Captured before the executor's Free point became one decision and one
// release step.  Registry programs run on their paper lattice (5x5 at
// NISQ scale, boundary scale otherwise) and on
// ftBraid(boundaryEdge, boundaryEdge); the explicit-Uncompute program
// runs on 5x5 machines.
const PolicyGolden kPolicyGoldens[] = {
    {"RD53", "lattice", "SQUARE", 135, 340, 5575, 1, 3, 0},
    {"RD53", "lattice", "LAA", 135, 340, 5575, 0, 4, 0},
    {"RD53", "lattice", "M&R(100)", 135, 540, 8007, 3, 0, 0},
    {"RD53", "lattice", "FORCED/2", 264, 610, 9955, 2, 2, 17},
    {"RD53", "lattice", "FORCED/3", 150, 367, 5953, 2, 2, 1},
    {"RD53", "ft", "SQUARE", 135, 212, 3347, 1, 3, 0},
    {"RD53", "ft", "LAA", 135, 212, 3347, 0, 4, 0},
    {"RD53", "ft", "M&R(100)", 135, 312, 4554, 3, 0, 0},
    {"RD53", "ft", "FORCED/2", 264, 528, 8626, 2, 2, 17},
    {"RD53", "ft", "FORCED/3", 150, 264, 4280, 2, 2, 1},
    {"Belle-s", "lattice", "SQUARE", 752, 1811, 26352, 0, 15, 0},
    {"Belle-s", "lattice", "LAA", 752, 1811, 26352, 0, 15, 0},
    {"Belle-s", "lattice", "M&R(100)", 752, 2053, 17401, 15, 0, 0},
    {"Belle-s", "lattice", "FORCED/2", 3818, 9939, 97182, 14, 13, 322},
    {"Belle-s", "lattice", "FORCED/3", 1566, 3996, 37920, 5, 10, 86},
    {"Belle-s", "ft", "SQUARE", 752, 2476, 35376, 0, 15, 0},
    {"Belle-s", "ft", "LAA", 752, 2476, 35376, 0, 15, 0},
    {"Belle-s", "ft", "M&R(100)", 752, 2576, 22263, 15, 0, 0},
    {"Belle-s", "ft", "FORCED/2", 3818, 12414, 121328, 14, 13, 322},
    {"Belle-s", "ft", "FORCED/3", 1566, 5082, 47904, 5, 10, 86},
    {"MODEXP", "lattice", "SQUARE", 7398, 16221, 1201746, 41, 7, 84},
    {"MODEXP", "lattice", "LAA", 6138, 15535, 2213344, 0, 55, 0},
    {"MODEXP", "lattice", "M&R(100)", 6138, 14669, 854857, 43, 0, 0},
    {"MODEXP", "lattice", "FORCED/2", 12810, 30471, 3298939, 28, 27, 862},
    {"MODEXP", "lattice", "FORCED/3", 12330, 31088, 3533885, 19, 36, 830},
    {"MODEXP", "ft", "SQUARE", 7398, 15192, 1122940, 41, 7, 84},
    {"MODEXP", "ft", "LAA", 6138, 12240, 1715441, 0, 55, 0},
    {"MODEXP", "ft", "M&R(100)", 6138, 13440, 663955, 43, 0, 0},
    {"MODEXP", "ft", "FORCED/2", 12810, 23830, 2542108, 28, 27, 862},
    {"MODEXP", "ft", "FORCED/3", 12330, 23866, 2628220, 19, 36, 830},
    {"explicit", "lattice", "SQUARE", 40, 138, 1272, 3, 4, 2},
    {"explicit", "lattice", "LAA", 40, 138, 1272, 2, 5, 2},
    {"explicit", "lattice", "M&R(100)", 40, 423, 3109, 6, 0, 2},
    {"explicit", "lattice", "FORCED/2", 42, 120, 986, 5, 2, 4},
    {"explicit", "lattice", "FORCED/3", 58, 158, 1316, 4, 3, 6},
    {"explicit", "ft", "SQUARE", 40, 104, 889, 3, 4, 2},
    {"explicit", "ft", "LAA", 40, 104, 889, 2, 5, 2},
    {"explicit", "ft", "M&R(100)", 40, 204, 1646, 6, 0, 2},
    {"explicit", "ft", "FORCED/2", 42, 106, 858, 5, 2, 4},
    {"explicit", "ft", "FORCED/3", 58, 160, 1335, 4, 3, 6},
};

TEST(Determinism, GoldenReclaimPolicyResults)
{
    for (const PolicyGolden &g : kPolicyGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.machine + "/" +
                     g.policy);
        Program prog;
        int lattice_edge = 5;
        int ft_edge = 5;
        if (std::string(g.workload) == "explicit") {
            prog = makeExplicitUncomputeProgram();
        } else {
            const BenchmarkInfo &info = findBenchmark(g.workload);
            prog = info.build();
            if (!info.nisqScale)
                lattice_edge = info.boundaryEdge;
            ft_edge = info.boundaryEdge;
        }
        Machine m = std::string(g.machine) == "ft"
                        ? Machine::ftBraid(ft_edge, ft_edge)
                        : Machine::nisqLattice(lattice_edge, lattice_edge);
        CompileResult r = compile(prog, m, policyByName(g.policy), {});
        EXPECT_EQ(r.gates, g.gates);
        EXPECT_EQ(r.depth, g.depth);
        EXPECT_EQ(r.aqv, g.aqv);
        EXPECT_EQ(r.reclaimCount, g.reclaimCount);
        EXPECT_EQ(r.skipCount, g.skipCount);
        EXPECT_EQ(r.uncomputeIrGates, g.uncomputeIrGates);
    }
}

TEST(Determinism, RepeatedCompilesAreIdentical)
{
    const BenchmarkInfo &info = findBenchmark("SALSA20");
    Program prog = info.build();
    SquareConfig cfg = SquareConfig::square();

    Machine m1 =
        Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
    CompileResult a = compile(prog, m1, cfg, {});
    Machine m2 =
        Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
    CompileResult b = compile(prog, m2, cfg, {});

    EXPECT_EQ(a.gates, b.gates);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.aqv, b.aqv);
    EXPECT_EQ(a.qubitsUsed, b.qubitsUsed);
    EXPECT_EQ(a.reclaimCount, b.reclaimCount);
    EXPECT_EQ(a.skipCount, b.skipCount);
}

} // namespace
} // namespace square
