/**
 * @file
 * The instrumentation-driven execution engine (Sec. III-C / IV-B).
 *
 * The Executor walks the program's call tree in program order, playing
 * the role of the instrumented classical executable the paper builds
 * with LLVM: each Allocate invokes the allocation heuristic, each Free
 * invokes the reclamation heuristic, and each gate goes to the
 * scheduler.
 *
 * Reclamation semantics (the correctness contract tested by the
 * functional simulator):
 *
 *  - a module invocation is Compute C, Store S, then a Free decision;
 *  - reclaim:   run C^-1 (or the explicit Uncompute block); own
 *               ancillas return to |0> and are pushed on the heap;
 *  - keep:      ancillas become garbage recorded in the invocation
 *               record, handed to the parent (qubit reservation);
 *  - inverting a completed invocation (while an ancestor uncomputes):
 *      reclaimed case:  fresh-allocate, run C, S^-1, C^-1, free
 *                       (recursive recomputation - the 2^l cost);
 *      garbage case:    run S^-1 then C^-1 consuming the recorded
 *                       ancillas, which end in |0> and are freed.
 *
 * Explicit Uncompute{} blocks contain only gates (validated); when a
 * module with an explicit block has calls in its compute block, those
 * callees are forced to reclaim so the gate-level inverse is sound.
 *
 * Allocation discipline: all per-compilation state lives in a borrowed
 * CompileContext; the Executor itself holds only the program view and
 * walk counters.  The whole Invocation call tree lives until run()
 * returns, so records - including their child-pointer and ancilla
 * arrays, whose exact sizes are known from the static analysis - come
 * from the context's monotonic arena (records are trivially
 * destructible; steady-state execution performs no heap allocation).
 * The per-call argument/ancilla temporaries are pooled in the context's
 * depth-indexed scratch stacks - execution is a single call stack, so
 * at most one frame per depth is live and each depth's buffers can be
 * reused across the millions of calls of a large workload.
 */

#ifndef SQUARE_CORE_EXECUTOR_H
#define SQUARE_CORE_EXECUTOR_H

#include <span>
#include <vector>

#include "common/logging.h"
#include "core/context.h"
#include "ir/analysis.h"

namespace square {

/** One compilation run over a borrowed context; single-use. */
class Executor
{
  public:
    Executor(const Program &prog, CompileContext &ctx);

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
        bool reclaimed = false;
        bool ancLive = false;
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
     * stack, so one live buffer per depth suffices; the context sizes
     * the pools for every depth the program can reach.
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
        return KidList{ctx_.arena.makeArray<InvPtr>(
                           static_cast<size_t>(calls)),
                       0, static_cast<uint32_t>(calls)};
    }

    /** Forward call: allocate, compute, store, Free decision. */
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
     * Allocate and AQV-track the ancillas of one invocation into
     * @p out, which must hold the module's numAncilla slots.
     */
    void allocAncillaTracked(ModuleId id,
                             std::span<const LogicalQubit> args,
                             LogicalQubit *out);

    /** Free a set of ancillas to the heap, closing AQV segments. */
    void freeAncilla(std::span<const LogicalQubit> anc);

    /** Apply one gate statement (possibly inverted). */
    void execGate(const Stmt &s, const Binding &b, bool inverse);

    /** Invocation ready time: max clock over its argument qubits. */
    int64_t readyTime(std::span<const LogicalQubit> args) const;

    const Program &prog_;
    CompileContext &ctx_;

    int64_t uncompute_ir_gates_ = 0;
    int uncompute_depth_ = 0; ///< >0 while executing uncompute/inverse
    int reclaim_count_ = 0;
    int skip_count_ = 0;
    size_t forced_idx_ = 0; ///< cursor into cfg.forcedDecisions
};

} // namespace square

#endif // SQUARE_CORE_EXECUTOR_H
