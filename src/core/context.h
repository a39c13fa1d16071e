/**
 * @file
 * Per-compilation state bundle.
 *
 * A CompileContext owns every piece of mutable state one compilation
 * touches: the logical-to-site layout, the ancilla heap, the scheduler
 * (and its routers), the allocator, the AQV tracker, the trace
 * plumbing, the invocation-record arena, and the depth-indexed scratch
 * pools.  The Executor borrows a context instead of owning ad-hoc
 * members, which makes the ownership story explicit:
 *
 *  - immutable inputs (Machine, SquareConfig, Program) are borrowed by
 *    const reference and shared freely across concurrent compilations;
 *  - everything mutable lives here, one context per compilation, with
 *    no globals and no state shared between contexts.
 *
 * A compilation is therefore a pure function of
 * (Program, Machine, SquareConfig): contexts on different threads never
 * alias, which is what lets the compile service's worker pool run one
 * compilation per worker with bit-identical per-request results.
 */

#ifndef SQUARE_CORE_CONTEXT_H
#define SQUARE_CORE_CONTEXT_H

#include <deque>
#include <vector>

#include "arch/layout.h"
#include "arch/machine.h"
#include "common/arena.h"
#include "core/allocator.h"
#include "core/compiler.h"
#include "core/heap.h"
#include "core/policy.h"
#include "metrics/aqv.h"
#include "schedule/scheduler.h"
#include "schedule/trace.h"

namespace square {

/** All mutable state of one compilation; single-use, not shared. */
class CompileContext
{
  public:
    CompileContext(const Machine &machine, const SquareConfig &cfg,
                   const CompileOptions &options = {});

    // The layout swap-observer closure captures `this`.
    CompileContext(const CompileContext &) = delete;
    CompileContext &operator=(const CompileContext &) = delete;

    // -- borrowed immutable views --------------------------------------
    const Machine &machine;
    const SquareConfig &cfg;
    const CompileOptions options;

    // -- owned per-compilation state (construction order matters) ------
    Layout layout;
    AncillaHeap heap;
    TeeTrace tee;
    VectorTrace recorder;
    GateScheduler sched;
    Allocator alloc;
    AqvTracker aqv;

    /** Backing store for every Invocation record of the run. */
    Arena arena;

    /**
     * Depth-indexed scratch pools.  Execution is a single call stack,
     * so at most one frame per depth is live and each depth's buffer is
     * reused across the millions of calls of a large workload.  Deques
     * because frames hold spans over the inner vectors across recursive
     * calls that may grow the pool: deque end-growth never invalidates
     * references to existing elements.
     */
    std::deque<std::vector<LogicalQubit>> argsScratch;
    std::deque<std::vector<LogicalQubit>> replayAncScratch;
};

} // namespace square

#endif // SQUARE_CORE_CONTEXT_H
