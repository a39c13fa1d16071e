/**
 * @file
 * Per-compilation state bundle.
 *
 * A CompileContext owns every piece of mutable state one compilation
 * touches: the logical-to-site layout, the ancilla heap, the scheduler
 * (and its routers), the allocator, the AQV tracker, the
 * invocation-record arena, and the depth-indexed scratch pools - plus
 * the program's analysis when none is borrowed.  The Executor borrows
 * a context instead of owning ad-hoc members, which makes the
 * ownership story explicit:
 *
 *  - immutable inputs (Machine, SquareConfig, Program, a shared
 *    ProgramAnalysis) are borrowed by const reference and shared freely
 *    across concurrent compilations;
 *  - everything mutable lives here, one context per compilation, with
 *    no globals and no state shared between contexts.
 *
 * A compilation is therefore a pure function of
 * (Program, Machine, SquareConfig): contexts on different threads never
 * alias, which is what lets the compile service's worker pool run one
 * compilation per worker with bit-identical per-request results.
 *
 * Construction sizes up front whatever the machine and the analysis
 * determine: the heap's site table, the logical-qubit and AQV tables
 * (for the forward pass's placements), the allocator's anchor scratch,
 * the swap router's path scratch (off lattices) and one scratch row per
 * call depth.  The run then grows only what recomputation adds beyond
 * the forward pass, the allocator's center-out order as it claims fresh
 * sites, and the arena's chunks.
 */

#ifndef SQUARE_CORE_CONTEXT_H
#define SQUARE_CORE_CONTEXT_H

#include <optional>
#include <vector>

#include "arch/layout.h"
#include "arch/machine.h"
#include "common/arena.h"
#include "core/allocator.h"
#include "core/compiler.h"
#include "core/heap.h"
#include "core/policy.h"
#include "ir/analysis.h"
#include "metrics/aqv.h"
#include "schedule/scheduler.h"

namespace square {

/** All mutable state of one compilation; single-use, not shared. */
class CompileContext
{
  public:
    CompileContext(const Program &prog, const Machine &machine,
                   const SquareConfig &cfg,
                   const CompileOptions &options = {});

    // The scheduler and the allocator hold references to the layout
    // and the heap next to them.
    CompileContext(const CompileContext &) = delete;
    CompileContext &operator=(const CompileContext &) = delete;

    // -- borrowed immutable views --------------------------------------
    const Machine &machine;
    const SquareConfig &cfg;
    const CompileOptions options;

    /** Engaged only when the options carry no shared analysis. */
    const std::optional<ProgramAnalysis> ownedAnalysis;
    /** The analysis in use: borrowed from the options, or owned. */
    const ProgramAnalysis &analysis;

    // -- owned per-compilation state (construction order matters) ------
    Layout layout;
    AncillaHeap heap;
    GateScheduler sched;
    Allocator alloc;
    AqvTracker aqv;

    /** Backing store for every Invocation record of the run. */
    Arena arena;

    /**
     * Depth-indexed scratch pools, one vector per call depth
     * [0, maxLevel()].  Execution is a single call stack, so at most one
     * frame per depth is live and each depth's buffer is reused across
     * the millions of calls of a large workload.  A module at call-graph
     * level l runs at depth l or shallower, so each buffer is reserved
     * to the widest module that can run at its depth and never grows;
     * frames hold spans over them across recursive calls.
     */
    std::vector<std::vector<LogicalQubit>> argsScratch;
    std::vector<std::vector<LogicalQubit>> replayAncScratch;
};

} // namespace square

#endif // SQUARE_CORE_CONTEXT_H
