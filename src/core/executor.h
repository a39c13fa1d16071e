/**
 * @file
 * The instrumentation-driven execution engine (Sec. III-C / IV-B).
 *
 * The Executor walks the program's call tree in program order, playing
 * the role of the instrumented classical executable the paper builds
 * with LLVM: each Allocate invokes the allocation heuristic, each Free
 * invokes the reclamation heuristic, and each gate goes to the
 * scheduler.  compile() (core/compiler.h) is one Executor's run().
 *
 * Reclamation semantics (the correctness contract tested by the
 * functional simulator):
 *
 *  - a module invocation is Compute C, Store S, then a Free point;
 *  - the Free point decides only when the invocation has garbage (own
 *    live ancillas plus what its children kept);
 *  - reclaim:   run C^-1 (or the explicit Uncompute block); own
 *               ancillas return to |0> and are pushed on the heap;
 *               under measurement-and-reset they are reset in place
 *               instead (Sec. II-E);
 *  - keep:      ancillas become garbage recorded in the invocation
 *               record, handed to the parent (qubit reservation);
 *  - inverting a completed invocation (while an ancestor uncomputes):
 *      reclaimed case:  fresh-allocate, run C, S^-1, C^-1, free
 *                       (recursive recomputation - the 2^l cost);
 *      garbage case:    run S^-1, then the reclaim's undo and release
 *                       on the recorded ancillas.
 *
 * Explicit Uncompute{} blocks contain only gates (validated); when a
 * module with an explicit block has calls in its compute block, those
 * callees are forced to reclaim by uncomputing, so the gate-level
 * inverse is sound.
 *
 * Ownership: the Executor is the one object of a compilation.  It
 * borrows the immutable inputs (Program, Machine, SquareConfig,
 * CompileOptions, and a shared ProgramAnalysis when the options carry
 * one) by const reference, and owns every piece of mutable state: the
 * layout, the ancilla heap, the scheduler and its routers, the
 * allocator, the AQV tracker, the invocation-record arena and the
 * depth-indexed scratch pools, plus the analysis when none is borrowed.
 * There are no globals and nothing is shared between Executors, so a
 * compilation is a pure function of (Program, Machine, SquareConfig):
 * the compile service's workers run one compilation each with
 * bit-identical per-request results.
 *
 * Allocation discipline: construction sizes up front whatever the
 * machine and the analysis determine: the heap's site table, the
 * logical-qubit and AQV tables (for the forward pass's placements), the
 * allocator's anchor scratch, the swap router's path scratch (off
 * lattices) and one scratch row per call depth.  The whole Invocation
 * call tree lives until run() returns, so records - including their
 * child-pointer and ancilla arrays, whose exact sizes are known from
 * the static analysis - come from the monotonic arena (records are
 * trivially destructible).  The run then grows only what recomputation
 * adds beyond the forward pass, the allocator's center-out order as it
 * claims fresh sites, and the arena's chunks.
 */

#ifndef SQUARE_CORE_EXECUTOR_H
#define SQUARE_CORE_EXECUTOR_H

#include <optional>
#include <span>
#include <vector>

#include "arch/layout.h"
#include "arch/machine.h"
#include "common/arena.h"
#include "common/logging.h"
#include "core/allocator.h"
#include "core/compiler.h"
#include "core/heap.h"
#include "core/policy.h"
#include "ir/analysis.h"
#include "metrics/aqv.h"
#include "schedule/scheduler.h"

namespace square {

/** One compilation: its inputs, its state and its walk; single-use. */
class Executor
{
  public:
    Executor(const Program &prog, const Machine &machine,
             const SquareConfig &cfg, const CompileOptions &options);

    // The scheduler and the allocator hold references to the layout
    // and the heap beside them.
    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Execute the program and collect the result. */
    CompileResult run();

  private:
    struct Invocation;

    /**
     * Fixed-capacity child-record list backed by arena storage; the
     * capacity (call statements in the block) comes from the static
     * analysis, so push() never grows.  The capacity check guards the
     * arena against any drift between the analysis counts and the
     * statements actually executed (including calls in explicit
     * uncompute blocks, which are validated to be gate-only).
     */
    struct KidList
    {
        Invocation **data = nullptr;
        uint32_t count = 0;
        uint32_t cap = 0;

        void
        push(Invocation *p)
        {
            SQ_ASSERT(count < cap, "invocation child list overflow");
            data[count++] = p;
        }
        Invocation *operator[](size_t i) const { return data[i]; }
        Invocation **begin() const { return data; }
        Invocation **end() const { return data + count; }
        bool empty() const { return count == 0; }
    };

    /**
     * Record of one completed forward invocation.  Trivially
     * destructible by design (the anc/kid arrays are arena slices),
     * as every arena object must be.
     */
    struct Invocation
    {
        ModuleId mod = kNoModule;
        /** Arena-backed ancilla list (numAncilla of the module). */
        LogicalQubit *anc = nullptr;
        uint32_t numAnc = 0;
        /** Own ancillas grounded; they are live until then. */
        bool reclaimed = false;
        /** Children per block, in forward execution order. */
        KidList computeKids;
        KidList storeKids;
        /** Estimated gates to undo this invocation's compute block. */
        int64_t uncompCost = 0;
        /** Estimated gates to invert the whole invocation later. */
        int64_t invertCost = 0;
        /** Garbage qubits this invocation hands to its parent. */
        int garbage = 0;

        std::span<LogicalQubit> ancillas() const { return {anc, numAnc}; }
    };

    using InvPtr = Invocation *;

    /** Current virtual-register bindings for one executing frame. */
    struct Binding
    {
        std::span<const LogicalQubit> params;
        std::span<const LogicalQubit> anc;
    };

    /** Resolve a virtual qubit ref against a frame's bindings. */
    LogicalQubit
    resolve(const Binding &b, const QubitRef &q) const
    {
        return q.isParam() ? b.params[static_cast<size_t>(q.index)]
                           : b.anc[static_cast<size_t>(q.index)];
    }

    /**
     * Cleared scratch buffer for @p depth.  Execution is a single call
     * stack, so one live buffer per depth suffices; the constructor
     * sizes the pools for every depth the program can reach.
     */
    static std::vector<LogicalQubit> &
    depthScratch(std::vector<std::vector<LogicalQubit>> &pool, int depth)
    {
        SQ_ASSERT(static_cast<size_t>(depth) < pool.size(),
                  "call depth beyond the deepest call-graph level");
        std::vector<LogicalQubit> &v = pool[static_cast<size_t>(depth)];
        v.clear();
        return v;
    }

    /** Arena-backed child list sized for @p calls call statements. */
    KidList
    makeKids(int calls)
    {
        return KidList{arena_.makeArray<InvPtr>(static_cast<size_t>(calls)),
                       0, static_cast<uint32_t>(calls)};
    }

    /** Forward call: allocate, compute, store, Free point. */
    InvPtr execCall(ModuleId id, std::span<const LogicalQubit> args,
                    int depth, int64_t gates_to_parent_uncompute,
                    bool force_reclaim);

    /**
     * Execute a block forward, recording call children into @p kids
     * (preallocated to the block's call count).  @p inherited_gates is
     * the enclosing frame's own gates-to-reclamation estimate, folded
     * into each child's G_p (scaled by cfg.holdHorizon).
     */
    void runBlockForward(const std::vector<Stmt> &block, const Binding &b,
                         KidList &kids, int depth,
                         std::span<const int64_t> suffix,
                         bool force_kids, int64_t inherited_gates);

    /** Execute the inverse of a block, consuming @p kids in reverse. */
    void invertBlock(const std::vector<Stmt> &block, const Binding &b,
                     const KidList &kids, int depth);

    /** Undo a completed invocation per its record (see file header). */
    void invertInvocation(Invocation &rec,
                          std::span<const LogicalQubit> args, int depth);

    /** The Free decision for @p inv at @p depth. */
    bool shouldReclaim(const Invocation &inv, int depth,
                       int64_t gates_to_parent_uncompute);

    /**
     * Ground @p inv's own ancillas and mark it reclaimed: reset them in
     * place when @p reset, else undo its compute block first; then
     * release them and recount its garbage.
     */
    void reclaim(Invocation &inv, const Binding &b, int depth, bool reset);

    /** Run the explicit Uncompute block, or invert the compute block. */
    void uncompute(const Invocation &inv, const Binding &b, int depth);

    /**
     * Release @p anc to the heap in reverse order, closing their AQV
     * segments; with @p reset, each site first pays the reset latency.
     */
    void releaseAncilla(std::span<const LogicalQubit> anc, bool reset);

    /** Own live ancillas plus every child's garbage. */
    static int garbageOf(const Invocation &inv);

    /** Gates to invert @p block: one per gate plus each child's cost. */
    static int64_t invertCostOf(const std::vector<Stmt> &block,
                                const KidList &kids);

    /**
     * Allocate and AQV-track the ancillas of one invocation into
     * @p out, which must hold the module's numAncilla slots.
     */
    void allocAncillaTracked(ModuleId id,
                             std::span<const LogicalQubit> args,
                             LogicalQubit *out);

    /** Apply one gate statement (possibly inverted). */
    void execGate(const Stmt &s, const Binding &b, bool inverse);

    /** Invocation ready time: max clock over its argument qubits. */
    int64_t readyTime(std::span<const LogicalQubit> args) const;

    // -- borrowed immutable inputs ---------------------------------------
    const Program &prog_;
    const Machine &machine_;
    const SquareConfig &cfg_;
    const CompileOptions &options_;

    /** Engaged only when the options carry no shared analysis. */
    const std::optional<ProgramAnalysis> ownedAnalysis_;
    /** The analysis in use: borrowed from the options, or owned. */
    const ProgramAnalysis &analysis_;

    // -- owned state (construction order matters) ------------------------
    Layout layout_;
    AncillaHeap heap_;
    GateScheduler sched_;
    Allocator alloc_;
    AqvTracker aqv_;

    /** Backing store for every Invocation record of the run. */
    Arena arena_;

    /**
     * Depth-indexed scratch pools, one vector per call depth
     * [0, maxLevel()].  Execution is a single call stack, so at most one
     * frame per depth is live and each depth's buffer is reused across
     * the millions of calls of a large workload.  A module at call-graph
     * level l runs at depth l or shallower, so each buffer is reserved
     * to the widest module that can run at its depth and never grows;
     * frames hold spans over them across recursive calls.
     */
    std::vector<std::vector<LogicalQubit>> argsScratch_;
    std::vector<std::vector<LogicalQubit>> replayAncScratch_;

    // -- walk counters ---------------------------------------------------
    int64_t uncompute_ir_gates_ = 0;
    int uncompute_depth_ = 0; ///< >0 while executing uncompute/inverse
    int reclaim_count_ = 0;
    int skip_count_ = 0;
    size_t forced_idx_ = 0; ///< cursor into cfg.forcedDecisions
};

} // namespace square

#endif // SQUARE_CORE_EXECUTOR_H
