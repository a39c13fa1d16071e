/**
 * @file
 * Static analysis over SQUARE IR programs.
 *
 * The instrumentation-driven executor makes allocation and reclamation
 * decisions in program order; the static quantities computed here feed
 * those heuristics:
 *
 *  - flattened gate counts per module under lazy (forward-only) and
 *    eager (uncompute-everywhere) semantics, used to estimate the
 *    G_uncomp and G_p terms of the CER cost model (Eq. 1-2);
 *  - suffix gate counts, i.e. for a call site k inside a module, how
 *    many gates remain from k to the module's own uncompute point
 *    (the "distance to the parent's uncompute block");
 *  - call-graph levels (entry = 0) and subtree heights;
 *  - qubit interaction sets: which parameters each ancilla interacts
 *    with, transitively through calls - the information
 *    LLVM::get_interact_qubits() provides in the paper (Alg. 1).
 *
 * Storage: the per-module tables of the whole program live in four
 * flat arrays owned by the ProgramAnalysis - one int64_t array holding
 * every suffix table, and one CSR table (row offsets, ancilla row ends,
 * columns) holding every interaction row.  Each array is sized exactly
 * before it is filled, so an analysis makes a fixed handful of heap
 * allocations whatever the program's module count or width.  A
 * ModuleStats holds views into those arrays: they stay valid when the
 * analysis is moved (the arrays' buffers move with it) and live exactly
 * as long as it does.  The analysis cannot be copied, since a copy's
 * views would still point into the original.
 */

#ifndef SQUARE_IR_ANALYSIS_H
#define SQUARE_IR_ANALYSIS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/module.h"

namespace square {

/**
 * Read-only rows of a CSR table over a shared column array: row i is
 * cols[begins[i], ends[i]).  A view borrows all three arrays.
 */
class CsrRows
{
  public:
    CsrRows() = default;

    CsrRows(const int32_t *cols, const int32_t *begins, const int32_t *ends,
            size_t rows)
        : cols_(cols), begins_(begins), ends_(ends), rows_(rows)
    {}

    size_t size() const { return rows_; }

    std::span<const int32_t>
    operator[](size_t i) const
    {
        return {cols_ + begins_[i], cols_ + ends_[i]};
    }

  private:
    const int32_t *cols_ = nullptr;
    const int32_t *begins_ = nullptr;
    const int32_t *ends_ = nullptr;
    size_t rows_ = 0;
};

/** Analysis results for one module; the tables are views (see file). */
struct ModuleStats
{
    /** Flattened forward-only gate count (lazy semantics): C + S. */
    int64_t flatForward = 0;

    /** Flattened gate count under eager-everywhere semantics. */
    int64_t flatEager = 0;

    /**
     * Total ancillas the subtree rooted here would hold live at once
     * under lazy semantics (own + all callees', counted per call site).
     */
    int64_t lazyAncilla = 0;

    /** Call statements directly in the compute block. */
    int computeCalls = 0;

    /** Call statements directly in the store block. */
    int storeCalls = 0;

    /** Call-graph level: entry module is 0; max over call chains. */
    int level = 0;

    /**
     * suffixCompute[k]: forward-flattened gates in compute statements
     * [k, end) plus the whole store block - an estimate of "gates from
     * this call site until this module reaches its own uncompute
     * point".  Has compute.size() + 1 entries (last = store only).
     */
    std::span<const int64_t> suffixCompute;

    /** Like suffixCompute but for store statements (store tail only). */
    std::span<const int64_t> suffixStore;

    /** Suffix counts within an explicit uncompute block (tail only). */
    std::span<const int64_t> suffixUncompute;

    /**
     * Undirected interaction adjacency over local indices
     * (params [0, P), ancillas [P, P+A)), one sorted row per local: two
     * locals interact when they appear in the same primitive gate,
     * expanded transitively through calls.
     */
    CsrRows interact;

    /**
     * For each ancilla a (index into [0, A)), the sorted *parameter*
     * indices it interacts with: the prefix of interact[P + a] below P.
     * Drives locality-aware allocation.
     */
    CsrRows ancillaParams;
};

/**
 * Whole-program static analysis: a pure function of the Program.
 * Computed once per compilation by default; the service layer shares
 * one const instance per unique program fingerprint instead (see
 * ir/analysis_cache.h), passed in via
 * CompileOptions::analysis.
 */
class ProgramAnalysis
{
  public:
    explicit ProgramAnalysis(const Program &prog);

    // The ModuleStats views point into this object's arrays: a move
    // carries the arrays' buffers along, a copy would not.
    ProgramAnalysis(ProgramAnalysis &&) = default;
    ProgramAnalysis(const ProgramAnalysis &) = delete;
    ProgramAnalysis &operator=(const ProgramAnalysis &) = delete;

    /**
     * Process-wide count of from-Program constructions (moves
     * excluded).  Lets tests assert the sharing contract: one analysis
     * compute per unique program fingerprint across a batch.
     */
    static int64_t constructionCount();

    const ModuleStats &
    stats(ModuleId id) const
    {
        return stats_.at(static_cast<size_t>(id));
    }

    /** Modules ordered callees-first (reverse topological). */
    const std::vector<ModuleId> &topoOrder() const { return topo_; }

    /** Deepest call-graph level in the program. */
    int maxLevel() const { return max_level_; }

  private:
    void computeTopoOrder(const Program &prog);
    void computeCounts(const Program &prog);
    void computeLevels(const Program &prog);
    void computeInteractions(const Program &prog);

    std::vector<ModuleStats> stats_;
    std::vector<ModuleId> topo_;
    /** Every module's three suffix tables. */
    std::vector<int64_t> suffixes_;
    /** Per module, numLocal() + 1 row offsets into links_. */
    std::vector<int32_t> row_starts_;
    /** Per ancilla, the end of its parameter prefix in links_. */
    std::vector<int32_t> ancilla_param_ends_;
    /** Every interaction row of every module. */
    std::vector<int32_t> links_;
    int max_level_ = 0;
};

} // namespace square

#endif // SQUARE_IR_ANALYSIS_H
