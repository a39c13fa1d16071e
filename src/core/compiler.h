/**
 * @file
 * Top-level SQUARE compilation API.
 *
 * compile() runs the instrumentation-driven tool flow of Fig. 4: it
 * executes the program's (compile-time-known) control flow, invoking the
 * allocation heuristic at every Allocate point and the reclamation
 * heuristic at every Free point, while the gate scheduler resolves
 * connectivity and assigns time steps.  The result carries every metric
 * the paper's evaluation reports; the timed gate schedule streams, gate
 * by gate, to the caller's TraceSink (CompileOptions::extraSink) and
 * nowhere else.  compile() is defined beside the Executor
 * (core/executor.*), the one object that holds a compilation's state.
 */

#ifndef SQUARE_CORE_COMPILER_H
#define SQUARE_CORE_COMPILER_H

#include <vector>

#include "arch/machine.h"
#include "core/policy.h"
#include "ir/module.h"
#include "metrics/aqv.h"
#include "schedule/scheduler.h"
#include "schedule/trace.h"

namespace square {

class ProgramAnalysis;

namespace obs {
class PhaseSink;
} // namespace obs

/** Optional knobs for one compilation. */
struct CompileOptions
{
    /**
     * Consumer of the timed gate schedule and of the reclaim and reset
     * events, in issue order: a VectorTrace keeps the gate list, a
     * ClassicalSim checks that reclaimed qubits are |0>.  Null costs
     * nothing: the scheduler then builds no TimedGate.
     */
    TraceSink *extraSink = nullptr;

    /**
     * Borrowed precomputed analysis of the program being compiled
     * (must be the analysis of exactly that program; nullptr means
     * "compute internally").  The service layer shares one const
     * ProgramAnalysis per unique program fingerprint across requests
     * (see ir/analysis_cache.h); the analysis is read-only during
     * compilation, so any number of concurrent compilations may borrow
     * the same instance.
     */
    const ProgramAnalysis *analysis = nullptr;

    /**
     * Phase-span consumer for per-request tracing (obs/trace.h):
     * when non-null, the compiler reports the wall time of its fused
     * "allocate_route_schedule" instrumentation-driven walk against
     * the request's trace (the caller times the analysis it passes
     * in).  Null costs nothing.
     */
    obs::PhaseSink *phases = nullptr;
};

/** Everything measured during one compilation. */
struct CompileResult
{
    // -- headline metrics (Table III / Fig. 8-10) ----------------------
    int64_t aqv = 0;          ///< active quantum volume (cycle-qubits)
    int qubitsUsed = 0;       ///< distinct machine sites ever occupied
    int peakLive = 0;         ///< max simultaneously live qubits
    int64_t gates = 0;        ///< scheduled gates, excluding swaps
    int64_t swaps = 0;        ///< routing + program swaps
    int64_t depth = 0;        ///< makespan in machine cycles

    // -- breakdowns -----------------------------------------------------
    SchedStats sched;         ///< per-kind gate counters
    int64_t uncomputeIrGates = 0; ///< IR gates issued inside uncomputes
    int reclaimCount = 0;     ///< Free points that uncomputed
    int skipCount = 0;        ///< Free points that left garbage
    double commFactor = 0.0;  ///< final S (swaps/gate or conflicts/braid)
    double avgBraidLength = 0.0;

    // -- artifacts -------------------------------------------------------
    std::vector<UsagePoint> usageCurve;   ///< Fig. 1 step curve
    std::vector<PhysQubit> primaryInitialSites;
    std::vector<PhysQubit> primaryFinalSites;

    /** Machine and policy labels for report printing. */
    std::string machineLabel;
    std::string policyLabel;
};

/**
 * Compile @p prog for @p machine under policy @p cfg.
 *
 * Fatal when the program cannot fit the machine under the chosen
 * policy (allocation finds no free site).
 */
CompileResult compile(const Program &prog, const Machine &machine,
                      const SquareConfig &cfg,
                      const CompileOptions &options = {});

} // namespace square

#endif // SQUARE_CORE_COMPILER_H
