#include "ir/analysis.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>

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

/**
 * Call link(a, b) once per interacting pair of locals of @p m met in
 * its compute and store blocks (never with a == b; a pair may repeat):
 * the operands of each gate, and each callee's parameter-parameter
 * links mapped through the call's argument list.  The callees'
 * interaction rows must be complete.
 */
template <typename Link>
void
forEachLink(const Program &prog, const std::vector<ModuleStats> &stats,
            const Module &m, Link &&link)
{
    const int P = m.numParams;
    auto pair = [&](int a, int b) {
        if (a != b)
            link(a, b);
    };
    for (const auto *block : {&m.compute, &m.store}) {
        for (const Stmt &s : *block) {
            if (s.isGate()) {
                const int arity = gateArity(s.gate);
                for (int i = 0; i < arity; ++i) {
                    for (int j = i + 1; j < arity; ++j)
                        pair(s.operands[i].local(P), s.operands[j].local(P));
                }
                continue;
            }
            const CsrRows &rows = stats[s.callee].interact;
            const int cp = prog.module(s.callee).numParams;
            for (int i = 0; i < cp; ++i) {
                // A sorted row lists the callee's parameters before its
                // ancillas.
                for (int32_t j : rows[static_cast<size_t>(i)]) {
                    if (j >= cp)
                        break;
                    if (j > i)
                        pair(s.args[i].local(P), s.args[j].local(P));
                }
            }
        }
    }
}

} // namespace

void
ProgramAnalysis::computeTopoOrder(const Program &prog)
{
    // Post-order DFS over the (validated, acyclic) call graph yields a
    // callees-first order.
    std::vector<bool> done(prog.modules.size(), false);
    topo_.reserve(prog.modules.size());
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

    // Every module's suffix tables, one entry per statement plus the
    // block end, laid out in topological order.
    size_t entries = 0;
    for (const Module &m : prog.modules)
        entries += m.compute.size() + m.store.size() + m.uncompute.size() + 3;
    suffixes_.assign(entries, 0);
    int64_t *next = suffixes_.data();
    auto carve = [&](size_t stmts) {
        std::span<int64_t> table(next, stmts + 1);
        next += stmts + 1;
        return table;
    };

    for (ModuleId id : topo_) {
        const Module &m = prog.module(id);
        ModuleStats &st = stats_[id];

        int64_t fwd_compute = 0, fwd_store = 0;
        int64_t eag_compute = 0, eag_store = 0;
        int64_t lazy_anc = m.numAncilla;
        for (const Stmt &s : m.compute) {
            fwd_compute += forward_cost(s);
            eag_compute += eager_cost(s);
            if (!s.isGate()) {
                ++st.computeCalls;
                lazy_anc += stats_[s.callee].lazyAncilla;
            }
        }
        for (const Stmt &s : m.store) {
            fwd_store += forward_cost(s);
            eag_store += eager_cost(s);
            if (!s.isGate()) {
                ++st.storeCalls;
                lazy_anc += stats_[s.callee].lazyAncilla;
            }
        }

        st.flatForward = fwd_compute + fwd_store;
        // Eager semantics: compute runs forward and inverted; the
        // inverse of an eager-reclaimed callee costs a full recompute.
        st.flatEager = 2 * eag_compute + eag_store;
        st.lazyAncilla = lazy_anc;

        // Suffix sums: gates remaining from statement k to the module's
        // own uncompute point (end of store).
        std::span<int64_t> compute = carve(m.compute.size());
        std::span<int64_t> store = carve(m.store.size());
        std::span<int64_t> uncompute = carve(m.uncompute.size());
        for (size_t k = m.store.size(); k-- > 0;)
            store[k] = store[k + 1] + forward_cost(m.store[k]);
        compute[m.compute.size()] = store[0];
        for (size_t k = m.compute.size(); k-- > 0;)
            compute[k] = compute[k + 1] + forward_cost(m.compute[k]);
        for (size_t k = m.uncompute.size(); k-- > 0;)
            uncompute[k] = uncompute[k + 1] + forward_cost(m.uncompute[k]);
        st.suffixCompute = compute;
        st.suffixStore = store;
        st.suffixUncompute = uncompute;
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
    // Module by module in topological order, every link is written in
    // both directions into a scratch column array, bucketed by row with
    // one counting pass; each short row is then sorted, deduplicated and
    // compacted behind the rows before it.  Memory stays proportional to
    // the links, whatever the module's width.
    //
    // The scratch is sized once from an upper bound: a module writes at
    // most two entries per gate operand pair and per parameter pair its
    // callees can link, and keeps at most L(L-1) of them.
    std::vector<int64_t> param_pairs(prog.modules.size());
    int64_t kept = 0, capacity = 0;
    size_t rows = 0, ancillas = 0;
    for (ModuleId id : topo_) {
        const Module &m = prog.module(id);
        int64_t pairs = 0;
        for (const auto *block : {&m.compute, &m.store}) {
            for (const Stmt &s : *block) {
                if (s.isGate()) {
                    const int64_t arity = gateArity(s.gate);
                    pairs += arity * (arity - 1) / 2;
                } else {
                    pairs += param_pairs[s.callee];
                }
            }
        }
        const int64_t P = m.numParams, L = m.numLocal();
        param_pairs[id] = std::min(P * (P - 1) / 2, pairs);
        capacity = std::max(capacity, kept + 2 * pairs);
        kept += std::min(2 * pairs, L * (L - 1));
        rows += static_cast<size_t>(L) + 1;
        ancillas += static_cast<size_t>(m.numAncilla);
    }
    if (capacity > std::numeric_limits<int32_t>::max())
        fatal("program too large to analyse: up to ", capacity,
              " interaction entries");
    auto scratch = std::make_unique_for_overwrite<int32_t[]>(
        static_cast<size_t>(capacity));
    row_starts_.assign(rows, 0);
    ancilla_param_ends_.resize(ancillas);

    // Point every module's views at its slices of the row tables, in
    // topological order.  Offsets are read through the views, so views
    // set before the fill see each module's rows once it is filled.
    auto point_views = [&](const int32_t *cols) {
        const int32_t *row = row_starts_.data();
        const int32_t *anc_end = ancilla_param_ends_.data();
        for (ModuleId id : topo_) {
            const Module &m = prog.module(id);
            ModuleStats &st = stats_[id];
            const size_t L = static_cast<size_t>(m.numLocal());
            const size_t A = static_cast<size_t>(m.numAncilla);
            st.interact = CsrRows(cols, row, row + 1, L);
            st.ancillaParams = CsrRows(cols, row + m.numParams, anc_end, A);
            row += L + 1;
            anc_end += A;
        }
    };
    int32_t *const cols = scratch.get();
    point_views(cols);

    int32_t *row = row_starts_.data();
    int32_t *anc_end = ancilla_param_ends_.data();
    int32_t used = 0;
    for (ModuleId id : topo_) {
        const Module &m = prog.module(id);
        const int P = m.numParams;
        const int L = m.numLocal();

        forEachLink(prog, stats_, m, [&](int a, int b) {
            ++row[a + 1];
            ++row[b + 1];
        });
        row[0] = used;
        for (int i = 0; i < L; ++i)
            row[i + 1] += row[i];
        SQ_ASSERT(row[L] <= capacity, "interaction scratch bound exceeded");
        forEachLink(prog, stats_, m, [&](int a, int b) {
            cols[row[a]++] = b;
            cols[row[b]++] = a;
        });

        // The fill advanced row[i] to the end of row i; rewrite it as
        // the start of the row's compacted copy.
        for (int i = 0, begin = used; i < L; ++i) {
            const int end = row[i];
            std::sort(cols + begin, cols + end);
            const int n =
                static_cast<int>(std::unique(cols + begin, cols + end) -
                                 (cols + begin));
            if (used < begin)
                std::copy(cols + begin, cols + begin + n, cols + used);
            row[i] = used;
            used += n;
            begin = end;
        }
        row[L] = used;

        for (int a = 0; a < m.numAncilla; ++a) {
            anc_end[a] = static_cast<int32_t>(
                std::lower_bound(cols + row[P + a], cols + row[P + a + 1],
                                 P) -
                cols);
        }
        row += L + 1;
        anc_end += m.numAncilla;
    }

    links_.assign(cols, cols + used);
    point_views(links_.data());
}

} // namespace square
