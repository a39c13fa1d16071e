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
 * verified bit-identical against the refactored hot path.
 *
 * The fault-tolerant goldens pin the braid router the same way: every
 * Fig. 10 program under SQUARE (plus LAZY and EAGER on the two largest)
 * on its boundary-scale ftBraid machine, including braid and conflict
 * counts and the exact average braid length.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/compiler.h"
#include "core/policy.h"
#include "workloads/registry.h"

namespace square {
namespace {

struct Golden
{
    const char *workload;
    const char *policy;
    int64_t gates;
    int64_t swaps;
    int qubitsUsed;
    int reclaimCount;
    int64_t aqv;
};

// Captured from the seed build (pre-refactor) at boundary scale.
const Golden kGoldens[] = {
    {"SHA2", "LAZY", 27140, 48687, 855, 0, 47242845},
    {"SHA2", "EAGER", 90892, 78230, 465, 137, 80170853},
    {"SHA2", "SQUARE", 27140, 39415, 791, 80, 38532394},
    {"SALSA20", "LAZY", 8832, 8485, 281, 0, 4252901},
    {"SALSA20", "EAGER", 17536, 7475, 87, 96, 3082684},
    {"SALSA20", "SQUARE", 8832, 5922, 200, 75, 2628073},
};

SquareConfig
policyByName(const std::string &name)
{
    if (name == "LAZY")
        return SquareConfig::lazy();
    if (name == "EAGER")
        return SquareConfig::eager();
    return SquareConfig::square();
}

TEST(Determinism, GoldenCompileResults)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.policy);
        const BenchmarkInfo &info = findBenchmark(g.workload);
        Program prog = info.build();
        Machine m =
            Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
        CompileResult r = compile(prog, m, policyByName(g.policy), {});
        EXPECT_EQ(r.gates, g.gates);
        EXPECT_EQ(r.swaps, g.swaps);
        EXPECT_EQ(r.qubitsUsed, g.qubitsUsed);
        EXPECT_EQ(r.reclaimCount, g.reclaimCount);
        EXPECT_EQ(r.aqv, g.aqv);
    }
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

TEST(Determinism, GoldenFaultTolerantCompileResults)
{
    for (const FtGolden &g : kFtGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.policy);
        const BenchmarkInfo &info = findBenchmark(g.workload);
        Program prog = info.build();
        Machine m = Machine::ftBraid(info.boundaryEdge, info.boundaryEdge);
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
