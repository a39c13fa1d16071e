/**
 * @file
 * Unit tests for the IR: gates, builder, validation, static analysis.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

#include "ir/analysis.h"
#include "ir/builder.h"
#include "ir/validate.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace square {
namespace {

TEST(Gate, ArityTable)
{
    EXPECT_EQ(gateArity(GateKind::X), 1);
    EXPECT_EQ(gateArity(GateKind::CNOT), 2);
    EXPECT_EQ(gateArity(GateKind::Toffoli), 3);
    EXPECT_EQ(gateArity(GateKind::Swap), 2);
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::CZ), 2);
}

TEST(Gate, ClassicalSubset)
{
    EXPECT_TRUE(gateIsClassical(GateKind::X));
    EXPECT_TRUE(gateIsClassical(GateKind::CNOT));
    EXPECT_TRUE(gateIsClassical(GateKind::Toffoli));
    EXPECT_TRUE(gateIsClassical(GateKind::Swap));
    EXPECT_FALSE(gateIsClassical(GateKind::H));
    EXPECT_FALSE(gateIsClassical(GateKind::T));
}

TEST(Gate, InversePairs)
{
    // Self-inverse gates.
    for (GateKind k : {GateKind::X, GateKind::CNOT, GateKind::Toffoli,
                       GateKind::Swap, GateKind::H, GateKind::Z,
                       GateKind::CZ}) {
        EXPECT_EQ(gateInverse(k), k) << gateName(k);
    }
    EXPECT_EQ(gateInverse(GateKind::S), GateKind::Sdg);
    EXPECT_EQ(gateInverse(GateKind::Sdg), GateKind::S);
    EXPECT_EQ(gateInverse(GateKind::T), GateKind::Tdg);
    EXPECT_EQ(gateInverse(GateKind::Tdg), GateKind::T);
}

TEST(Gate, InverseIsInvolution)
{
    for (int i = 0; i < static_cast<int>(GateKind::NumKinds); ++i) {
        GateKind k = static_cast<GateKind>(i);
        EXPECT_EQ(gateInverse(gateInverse(k)), k) << gateName(k);
    }
}

TEST(Gate, NameRoundTrip)
{
    for (int i = 0; i < static_cast<int>(GateKind::NumKinds); ++i) {
        GateKind k = static_cast<GateKind>(i);
        GateKind parsed;
        ASSERT_TRUE(gateFromName(gateName(k), parsed)) << gateName(k);
        EXPECT_EQ(parsed, k);
    }
    GateKind k;
    EXPECT_TRUE(gateFromName("CCX", k));
    EXPECT_EQ(k, GateKind::Toffoli);
    EXPECT_TRUE(gateFromName("NOT", k));
    EXPECT_EQ(k, GateKind::X);
    EXPECT_FALSE(gateFromName("FOO", k));
}

TEST(Builder, SimpleProgram)
{
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 2, 1);
    leaf.toffoli(leaf.p(0), leaf.p(1), leaf.a(0));
    leaf.inStore().cnot(leaf.a(0), leaf.p(1));

    auto top = pb.module("main", 3, 0);
    top.inStore().call(leaf.id(), {top.p(0), top.p(1)});

    Program prog = pb.build("main");
    EXPECT_EQ(prog.modules.size(), 2u);
    EXPECT_EQ(prog.numPrimary(), 3);
    EXPECT_EQ(prog.entryModule().name, "main");
    EXPECT_NE(prog.findModule("leaf"), kNoModule);
    EXPECT_EQ(prog.findModule("nothere"), kNoModule);
}

TEST(Builder, RejectsBadArity)
{
    ProgramBuilder pb;
    auto m = pb.module("m", 2, 0);
    EXPECT_THROW(m.gate(GateKind::CNOT, {m.p(0)}), FatalError);
}

TEST(Builder, RejectsDuplicateModuleName)
{
    ProgramBuilder pb;
    pb.module("m", 1, 0);
    EXPECT_THROW(pb.module("m", 1, 0), FatalError);
}

TEST(Validate, RejectsOutOfRangeRefs)
{
    ProgramBuilder pb;
    auto m = pb.module("main", 1, 0);
    m.x(m.p(5));
    EXPECT_THROW(pb.build("main"), FatalError);
}

TEST(Validate, RejectsDuplicateGateOperands)
{
    ProgramBuilder pb;
    auto m = pb.module("main", 2, 0);
    m.cnot(m.p(0), m.p(0));
    EXPECT_THROW(pb.build("main"), FatalError);
}

TEST(Validate, RejectsNonClassicalCompute)
{
    ProgramBuilder pb;
    auto m = pb.module("main", 1, 1);
    m.h(m.p(0));
    EXPECT_THROW(pb.build("main"), FatalError);
}

TEST(Validate, AllowsNonClassicalStore)
{
    ProgramBuilder pb;
    auto m = pb.module("main", 1, 0);
    m.inStore().h(m.p(0));
    EXPECT_NO_THROW(pb.build("main"));
}

TEST(Validate, RejectsArgCountMismatch)
{
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 2, 0);
    leaf.cnot(leaf.p(0), leaf.p(1));
    auto m = pb.module("main", 3, 0);
    m.call(leaf.id(), {m.p(0)});
    EXPECT_THROW(pb.build("main"), FatalError);
}

TEST(Validate, RejectsCloningArgs)
{
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 2, 0);
    leaf.cnot(leaf.p(0), leaf.p(1));
    auto m = pb.module("main", 2, 0);
    m.call(leaf.id(), {m.p(0), m.p(0)});
    EXPECT_THROW(pb.build("main"), FatalError);
}

TEST(Validate, RejectsCallInExplicitUncompute)
{
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 1, 0);
    leaf.x(leaf.p(0));
    auto m = pb.module("main", 1, 1);
    m.x(m.a(0));
    m.inUncompute().call(leaf.id(), {m.p(0)});
    EXPECT_THROW(pb.build("main"), FatalError);
}

TEST(InvertedBlock, ReversesAndInverts)
{
    ProgramBuilder pb;
    auto m = pb.module("main", 2, 0);
    m.inStore().t(m.p(0)).cnot(m.p(0), m.p(1));
    Program prog = pb.build("main");

    auto inv = invertedBlock(prog.entryModule().store);
    ASSERT_EQ(inv.size(), 2u);
    EXPECT_EQ(inv[0].gate, GateKind::CNOT);
    EXPECT_EQ(inv[1].gate, GateKind::Tdg);
}

TEST(Analysis, FlatCountsLinearChain)
{
    // leaf: 2 gates compute, 1 gate store.
    // mid: calls leaf twice in compute, 1 gate store.
    // main: calls mid once in store.
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 2, 1);
    leaf.cnot(leaf.p(0), leaf.a(0)).cnot(leaf.p(1), leaf.a(0));
    leaf.inStore().cnot(leaf.a(0), leaf.p(1));

    auto mid = pb.module("mid", 2, 1);
    mid.call(leaf.id(), {mid.p(0), mid.p(1)});
    mid.call(leaf.id(), {mid.p(1), mid.a(0)});
    mid.inStore().cnot(mid.a(0), mid.p(0));

    auto main = pb.module("main", 2, 0);
    main.inStore().call(mid.id(), {main.p(0), main.p(1)});
    Program prog = pb.build("main");

    ProgramAnalysis pa(prog);
    const auto &leaf_st = pa.stats(prog.findModule("leaf"));
    EXPECT_EQ(leaf_st.flatForward, 3);
    // eager: 2*2 + 1
    EXPECT_EQ(leaf_st.flatEager, 5);
    EXPECT_EQ(leaf_st.level, 2);

    const auto &mid_st = pa.stats(prog.findModule("mid"));
    EXPECT_EQ(mid_st.flatForward, 2 * 3 + 1);
    // eager: 2*(5+5) + 1
    EXPECT_EQ(mid_st.flatEager, 21);
    EXPECT_EQ(mid_st.level, 1);
    EXPECT_EQ(mid_st.lazyAncilla, 1 + 2);

    const auto &main_st = pa.stats(prog.entry);
    EXPECT_EQ(main_st.level, 0);
    EXPECT_EQ(main_st.flatForward, 7);
    EXPECT_EQ(pa.maxLevel(), 2);
}

/** One interaction row as a vector, for element-wise comparison. */
std::vector<int>
rowOf(std::span<const int32_t> row)
{
    return {row.begin(), row.end()};
}

TEST(Analysis, SuffixCounts)
{
    ProgramBuilder pb;
    auto m = pb.module("main", 2, 1);
    m.x(m.p(0)).cnot(m.p(0), m.a(0)).x(m.p(1));
    m.inStore().cnot(m.a(0), m.p(1)).x(m.p(1));
    Program prog = pb.build("main");

    ProgramAnalysis pa(prog);
    const auto &st = pa.stats(prog.entry);
    // suffixCompute[k] = compute gates from k on + all of store.
    ASSERT_EQ(st.suffixCompute.size(), 4u);
    EXPECT_EQ(st.suffixCompute[0], 5);
    EXPECT_EQ(st.suffixCompute[3], 2);
    ASSERT_EQ(st.suffixStore.size(), 3u);
    EXPECT_EQ(st.suffixStore[0], 2);
    EXPECT_EQ(st.suffixStore[2], 0);
}

TEST(Analysis, InteractionSets)
{
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 2, 0);
    leaf.cnot(leaf.p(0), leaf.p(1));

    auto m = pb.module("main", 3, 2);
    m.toffoli(m.p(0), m.p(1), m.a(0));
    m.call(leaf.id(), {m.p(2), m.a(1)});
    Program prog = pb.build("main");

    ProgramAnalysis pa(prog);
    const auto &st = pa.stats(prog.entry);
    // ancilla 0 interacts with params 0 and 1 (direct gate).
    ASSERT_EQ(st.ancillaParams.size(), 2u);
    EXPECT_EQ(rowOf(st.ancillaParams[0]), (std::vector<int>{0, 1}));
    // ancilla 1 interacts with param 2 (through the call).
    EXPECT_EQ(rowOf(st.ancillaParams[1]), (std::vector<int>{2}));
}

/**
 * Reference interaction sets: a plain std::set recomputation of
 * ModuleStats::interact, callees first, independent of the analysis'
 * own results except for its module order.
 */
std::vector<std::vector<std::set<int>>>
referenceInteractions(const Program &prog, const ProgramAnalysis &pa)
{
    std::vector<std::vector<std::set<int>>> adj(prog.modules.size());
    for (ModuleId id : pa.topoOrder()) {
        const Module &m = prog.module(id);
        const int P = m.numParams;
        std::vector<std::set<int>> &rows = adj[static_cast<size_t>(id)];
        rows.assign(static_cast<size_t>(m.numLocal()), {});
        auto link = [&](int a, int b) {
            if (a != b) {
                rows[static_cast<size_t>(a)].insert(b);
                rows[static_cast<size_t>(b)].insert(a);
            }
        };
        for (const auto *block : {&m.compute, &m.store}) {
            for (const Stmt &s : *block) {
                if (s.isGate()) {
                    const int arity = gateArity(s.gate);
                    for (int i = 0; i < arity; ++i) {
                        for (int j = i + 1; j < arity; ++j)
                            link(s.operands[i].local(P),
                                 s.operands[j].local(P));
                    }
                    continue;
                }
                const auto &callee = adj[static_cast<size_t>(s.callee)];
                const int cp = prog.module(s.callee).numParams;
                for (int i = 0; i < cp; ++i) {
                    for (int j : callee[static_cast<size_t>(i)]) {
                        if (j > i && j < cp)
                            link(s.args[i].local(P), s.args[j].local(P));
                    }
                }
            }
        }
    }
    return adj;
}

void
expectReferenceInteractions(const Program &prog)
{
    ProgramAnalysis pa(prog);
    const auto ref = referenceInteractions(prog, pa);
    for (size_t id = 0; id < prog.modules.size(); ++id) {
        const Module &m = prog.modules[id];
        SCOPED_TRACE("module " + m.name);
        const ModuleStats &st = pa.stats(static_cast<ModuleId>(id));
        ASSERT_EQ(st.interact.size(), ref[id].size());
        for (size_t i = 0; i < ref[id].size(); ++i) {
            EXPECT_EQ(rowOf(st.interact[i]),
                      std::vector<int>(ref[id][i].begin(), ref[id][i].end()))
                << "local " << i;
        }
        ASSERT_EQ(st.ancillaParams.size(),
                  static_cast<size_t>(m.numAncilla));
        for (int a = 0; a < m.numAncilla; ++a) {
            const std::set<int> &row =
                ref[id][static_cast<size_t>(m.numParams + a)];
            EXPECT_EQ(rowOf(st.ancillaParams[static_cast<size_t>(a)]),
                      std::vector<int>(row.begin(),
                                       row.lower_bound(m.numParams)))
                << "ancilla " << a;
        }
    }
}

TEST(Analysis, InteractionSetsMatchReferenceOnRegistry)
{
    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        SCOPED_TRACE(info.name);
        expectReferenceInteractions(info.build());
    }
}

TEST(Analysis, InteractionSetsMatchReferenceOnSyntheticShapes)
{
    for (int i = 0; i < 24; ++i) {
        SynthParams p;
        p.levels = 1 + i % 4;
        p.callees = 1 + (i / 4) % 3;
        p.dataParams = 2 + i % 5;
        p.outParams = 1 + (i / 3) % 3;
        p.ancilla = p.outParams + i % 4;
        p.gates = 2 + (i * 5) % 17;
        p.seed = 0xA11CE + 31ull * static_cast<uint64_t>(i);
        SCOPED_TRACE("shape " + std::to_string(i));
        expectReferenceInteractions(
            makeSynthetic("shape" + std::to_string(i), p));
    }
}

/** Expect @p got to hold the same numbers and tables as @p want. */
void
expectSameStats(const ModuleStats &got, const ModuleStats &want)
{
    EXPECT_EQ(got.flatForward, want.flatForward);
    EXPECT_EQ(got.flatEager, want.flatEager);
    EXPECT_EQ(got.lazyAncilla, want.lazyAncilla);
    EXPECT_EQ(got.computeCalls, want.computeCalls);
    EXPECT_EQ(got.storeCalls, want.storeCalls);
    EXPECT_EQ(got.level, want.level);
    auto same = [](std::span<const int64_t> a, std::span<const int64_t> b) {
        return std::vector<int64_t>(a.begin(), a.end()) ==
               std::vector<int64_t>(b.begin(), b.end());
    };
    EXPECT_TRUE(same(got.suffixCompute, want.suffixCompute));
    EXPECT_TRUE(same(got.suffixStore, want.suffixStore));
    EXPECT_TRUE(same(got.suffixUncompute, want.suffixUncompute));
    ASSERT_EQ(got.interact.size(), want.interact.size());
    for (size_t i = 0; i < want.interact.size(); ++i)
        EXPECT_EQ(rowOf(got.interact[i]), rowOf(want.interact[i])) << i;
    ASSERT_EQ(got.ancillaParams.size(), want.ancillaParams.size());
    for (size_t a = 0; a < want.ancillaParams.size(); ++a) {
        EXPECT_EQ(rowOf(got.ancillaParams[a]), rowOf(want.ancillaParams[a]))
            << a;
    }
}

TEST(Analysis, ViewsSurviveMovesOutOfOptional)
{
    // The compile context moves an analysis it builds out of a
    // std::optional; every view must read the same tables afterwards,
    // with the moved-from object gone (under ASan a view into its
    // storage would be a use after free).
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 2, 1);
    leaf.toffoli(leaf.p(0), leaf.p(1), leaf.a(0)).cnot(leaf.a(0), leaf.p(1));
    leaf.inUncompute().toffoli(leaf.p(0), leaf.p(1), leaf.a(0));
    auto m = pb.module("main", 3, 2);
    m.call(leaf.id(), {m.p(0), m.a(0)}).cnot(m.a(0), m.a(1));
    m.inStore().call(leaf.id(), {m.a(1), m.p(2)}).x(m.p(1));
    std::vector<Program> progs;
    progs.push_back(pb.build("main"));
    for (const BenchmarkInfo &info : benchmarkRegistry())
        progs.push_back(info.build());

    for (const Program &prog : progs) {
        SCOPED_TRACE(prog.module(prog.entry).name);
        const ProgramAnalysis want(prog);
        std::optional<ProgramAnalysis> boxed(std::in_place, prog);
        std::optional<ProgramAnalysis> moved(std::move(*boxed));
        boxed.reset();
        ProgramAnalysis got(std::move(*moved));
        moved.reset();
        EXPECT_EQ(got.maxLevel(), want.maxLevel());
        EXPECT_EQ(got.topoOrder(), want.topoOrder());
        for (size_t id = 0; id < prog.modules.size(); ++id) {
            SCOPED_TRACE("module " + prog.modules[id].name);
            expectSameStats(got.stats(static_cast<ModuleId>(id)),
                            want.stats(static_cast<ModuleId>(id)));
        }
    }
}

TEST(Analysis, TopoOrderCalleesFirst)
{
    ProgramBuilder pb;
    auto leaf = pb.module("leaf", 1, 0);
    leaf.x(leaf.p(0));
    auto main = pb.module("main", 1, 0);
    main.inStore().call(leaf.id(), {main.p(0)});
    Program prog = pb.build("main");

    ProgramAnalysis pa(prog);
    const auto &topo = pa.topoOrder();
    ASSERT_EQ(topo.size(), 2u);
    EXPECT_EQ(prog.module(topo[0]).name, "leaf");
    EXPECT_EQ(prog.module(topo[1]).name, "main");
}

} // namespace
} // namespace square
