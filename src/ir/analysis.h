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
 */

#ifndef SQUARE_IR_ANALYSIS_H
#define SQUARE_IR_ANALYSIS_H

#include <cstdint>
#include <vector>

#include "ir/module.h"

namespace square {

/** Analysis results for one module. */
struct ModuleStats
{
    /** Gate statements appearing directly in compute + store. */
    int64_t directGates = 0;

    /** Flattened forward-only gate count (lazy semantics): C + S. */
    int64_t flatForward = 0;

    /** Flattened forward gate count of the compute block alone. */
    int64_t flatCompute = 0;

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

    /** Height of the call subtree (leaf = 0). */
    int height = 0;

    /**
     * suffixCompute[k]: forward-flattened gates in compute statements
     * [k, end) plus the whole store block - an estimate of "gates from
     * this call site until this module reaches its own uncompute
     * point".  Has compute.size() + 1 entries (last = store only).
     */
    std::vector<int64_t> suffixCompute;

    /** Like suffixCompute but for store statements (store tail only). */
    std::vector<int64_t> suffixStore;

    /** Suffix counts within an explicit uncompute block (tail only). */
    std::vector<int64_t> suffixUncompute;

    /**
     * Undirected interaction adjacency over local indices
     * (params [0, P), ancillas [P, P+A)): two locals interact when they
     * appear in the same primitive gate, expanded transitively through
     * calls.
     */
    std::vector<std::vector<int>> interact;

    /**
     * For each ancilla a (index into [0, A)), the list of *parameter*
     * indices it interacts with.  Drives locality-aware allocation.
     */
    std::vector<std::vector<int>> ancillaParams;
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

    /**
     * Process-wide count of from-Program constructions (moves/copies
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
    int max_level_ = 0;
};

} // namespace square

#endif // SQUARE_IR_ANALYSIS_H
