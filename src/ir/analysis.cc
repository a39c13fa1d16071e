#include "ir/analysis.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/logging.h"

namespace square {

namespace {
std::atomic<int64_t> construction_count{0};
} // namespace

int64_t
ProgramAnalysis::constructionCount()
{
    return construction_count.load(std::memory_order_relaxed);
}

ProgramAnalysis::ProgramAnalysis(const Program &prog)
{
    construction_count.fetch_add(1, std::memory_order_relaxed);
    stats_.resize(prog.modules.size());
    computeTopoOrder(prog);
    computeCounts(prog);
    computeLevels(prog);
    computeInteractions(prog);
}

namespace {

/** Post-order DFS over the call graph, appending callees first. */
void
visitCallees(const Program &prog, ModuleId id, std::vector<bool> &done,
             std::vector<ModuleId> &order)
{
    if (done[id])
        return;
    done[id] = true;
    const Module &m = prog.module(id);
    for (const auto *block : {&m.compute, &m.store, &m.uncompute}) {
        for (const Stmt &s : *block) {
            if (s.isCall())
                visitCallees(prog, s.callee, done, order);
        }
    }
    order.push_back(id);
}

} // namespace

void
ProgramAnalysis::computeTopoOrder(const Program &prog)
{
    // Post-order DFS over the (validated, acyclic) call graph yields a
    // callees-first order.
    std::vector<bool> done(prog.modules.size(), false);
    for (size_t i = 0; i < prog.modules.size(); ++i)
        visitCallees(prog, static_cast<ModuleId>(i), done, topo_);
}

void
ProgramAnalysis::computeCounts(const Program &prog)
{
    auto forward_cost = [&](const Stmt &s) -> int64_t {
        return s.isGate() ? 1 : stats_[s.callee].flatForward;
    };
    auto eager_cost = [&](const Stmt &s) -> int64_t {
        return s.isGate() ? 1 : stats_[s.callee].flatEager;
    };

    for (ModuleId id : topo_) {
        const Module &m = prog.module(id);
        ModuleStats &st = stats_[id];

        int64_t fwd_compute = 0, fwd_store = 0;
        int64_t eag_compute = 0, eag_store = 0;
        int64_t lazy_anc = m.numAncilla;
        int height = 0;
        for (const Stmt &s : m.compute) {
            fwd_compute += forward_cost(s);
            eag_compute += eager_cost(s);
            if (s.isGate()) {
                ++st.directGates;
            } else {
                ++st.computeCalls;
                lazy_anc += stats_[s.callee].lazyAncilla;
                height = std::max(height, stats_[s.callee].height + 1);
            }
        }
        for (const Stmt &s : m.store) {
            fwd_store += forward_cost(s);
            eag_store += eager_cost(s);
            if (s.isGate()) {
                ++st.directGates;
            } else {
                ++st.storeCalls;
                lazy_anc += stats_[s.callee].lazyAncilla;
                height = std::max(height, stats_[s.callee].height + 1);
            }
        }

        st.flatCompute = fwd_compute;
        st.flatForward = fwd_compute + fwd_store;
        // Eager semantics: compute runs forward and inverted; the
        // inverse of an eager-reclaimed callee costs a full recompute.
        st.flatEager = 2 * eag_compute + eag_store;
        st.lazyAncilla = lazy_anc;
        st.height = height;

        // Suffix sums: gates remaining from statement k to the module's
        // own uncompute point (end of store).
        st.suffixCompute.assign(m.compute.size() + 1, 0);
        st.suffixStore.assign(m.store.size() + 1, 0);
        for (size_t k = m.store.size(); k-- > 0;) {
            st.suffixStore[k] =
                st.suffixStore[k + 1] + forward_cost(m.store[k]);
        }
        st.suffixCompute[m.compute.size()] = st.suffixStore[0];
        for (size_t k = m.compute.size(); k-- > 0;) {
            st.suffixCompute[k] =
                st.suffixCompute[k + 1] + forward_cost(m.compute[k]);
        }
        st.suffixUncompute.assign(m.uncompute.size() + 1, 0);
        for (size_t k = m.uncompute.size(); k-- > 0;) {
            st.suffixUncompute[k] =
                st.suffixUncompute[k + 1] + forward_cost(m.uncompute[k]);
        }
    }
}

void
ProgramAnalysis::computeLevels(const Program &prog)
{
    // Walk callers-first (reverse of topo order); level = longest call
    // chain from the entry.  Modules unreachable from the entry keep
    // level 0 rooted at themselves.
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
        ModuleId id = *it;
        const Module &m = prog.module(id);
        int child_level = stats_[id].level + 1;
        for (const auto *block : {&m.compute, &m.store, &m.uncompute}) {
            for (const Stmt &s : *block) {
                if (s.isCall()) {
                    stats_[s.callee].level =
                        std::max(stats_[s.callee].level, child_level);
                }
            }
        }
    }
    for (const ModuleStats &st : stats_)
        max_level_ = std::max(max_level_, st.level);
}

void
ProgramAnalysis::computeInteractions(const Program &prog)
{
    // Each module's links are collected as a flat list of directed
    // pairs (both directions), bucketed by row with one counting pass,
    // then every short row is sorted and deduplicated.  Memory stays
    // proportional to the links, whatever the module's width.
    std::vector<std::pair<int, int>> pairs;
    std::vector<int> row_start;
    std::vector<int> cols;
    for (ModuleId id : topo_) {
        const Module &m = prog.module(id);
        ModuleStats &st = stats_[id];
        const int P = m.numParams;
        const int L = m.numLocal();

        pairs.clear();
        auto link = [&](int a, int b) {
            if (a == b)
                return;
            pairs.emplace_back(a, b);
            pairs.emplace_back(b, a);
        };

        auto scan_block = [&](const std::vector<Stmt> &block) {
            for (const Stmt &s : block) {
                if (s.isGate()) {
                    int arity = gateArity(s.gate);
                    for (int i = 0; i < arity; ++i) {
                        for (int j = i + 1; j < arity; ++j) {
                            link(s.operands[i].local(P),
                                 s.operands[j].local(P));
                        }
                    }
                } else {
                    // Map the callee's param-param interactions through
                    // the argument list.
                    const ModuleStats &cst = stats_[s.callee];
                    const int cp = prog.module(s.callee).numParams;
                    for (int i = 0; i < cp; ++i) {
                        for (int j : cst.interact[i]) {
                            if (j >= cp || j <= i)
                                continue; // ancilla or already seen
                            link(s.args[i].local(P), s.args[j].local(P));
                        }
                    }
                }
            }
        };
        scan_block(m.compute);
        scan_block(m.store);

        row_start.assign(static_cast<size_t>(L) + 1, 0);
        for (const auto &[a, b] : pairs)
            ++row_start[static_cast<size_t>(a) + 1];
        for (int i = 0; i < L; ++i)
            row_start[i + 1] += row_start[i];
        cols.resize(pairs.size());
        for (const auto &[a, b] : pairs)
            cols[static_cast<size_t>(row_start[a]++)] = b;

        st.interact.assign(L, {});
        for (int i = 0, begin = 0; i < L; ++i) {
            // The fill pass advanced row_start[i] to the end of row i.
            const auto first = cols.begin() + begin;
            const auto last = cols.begin() + row_start[i];
            std::sort(first, last);
            st.interact[i].assign(first, std::unique(first, last));
            begin = row_start[i];
        }

        st.ancillaParams.assign(m.numAncilla, {});
        for (int a = 0; a < m.numAncilla; ++a) {
            for (int nbr : st.interact[P + a]) {
                if (nbr < P)
                    st.ancillaParams[a].push_back(nbr);
            }
        }
    }
}

} // namespace square
