/**
 * @file
 * Compiler policy configuration (Table I of the paper).
 *
 * Four stock configurations cover the evaluated strategies:
 *
 *  - eager():         reclaim at the end of every function (Baseline 1);
 *  - lazy():          reclaim only at the top of the call graph
 *                     (Baseline 2);
 *  - squareLaaOnly(): lazy reclamation but locality-aware allocation
 *                     (the "SQUARE (LAA only)" series of Fig. 8a/9/10);
 *  - square():        full SQUARE = LAA + cost-effective reclamation.
 *
 * The boolean toggles expose the CER cost-model terms for the ablation
 * benchmarks.
 */

#ifndef SQUARE_CORE_POLICY_H
#define SQUARE_CORE_POLICY_H

#include <cstdint>
#include <string>
#include <vector>

namespace square {

/** When to perform uncomputation at a Free point. */
enum class ReclaimPolicy : uint8_t {
    Eager,  ///< always uncompute
    Lazy,   ///< never uncompute (garbage rides to program end)
    Cer,    ///< cost-effective reclamation (Eq. 1-2)
    Forced, ///< scripted decisions (optimality search / testing)
    /**
     * Measurement-and-reset (Sec. II-E): skip uncomputation and reset
     * each module's own ancilla at its Free point, paying resetLatency
     * cycles per qubit.  Only sound for classical-basis executions
     * (resetting entangled garbage corrupts superposition inputs, the
     * paper's core objection); provided to reproduce the M&R
     * comparison quantitatively.
     */
    MeasureReset
};

/** How to choose qubits at an Allocate point. */
enum class AllocPolicy : uint8_t {
    Lifo,     ///< global ancilla heap, last-in-first-out
    Locality  ///< locality-aware allocation (Alg. 1)
};

/** Full compiler configuration. */
struct SquareConfig
{
    ReclaimPolicy reclaim = ReclaimPolicy::Cer;
    AllocPolicy alloc = AllocPolicy::Locality;

    // -- LAA scoring weights (Sec. IV-C) ------------------------------
    double commWeight = 1.0;          ///< distance-to-interaction term
    double serializationWeight = 0.5; ///< reuse-induced serialization
    double areaWeight = 0.3;          ///< active-area expansion term

    /** Candidate sites examined per class (heap / fresh) by LAA. */
    int candidateCap = 16;

    /**
     * The LAA candidate sweep never leaves the bounding box of the
     * anchor sites, inflated by this many sites in each direction.
     * Far-flung candidates score poorly on the communication term
     * anyway, so pruning them rarely changes decisions, but it stops
     * the BFS from flooding (and burning its whole visit budget on)
     * regions it will never pick from - the deeply-nested Belle
     * workload's sweep cost drops by an order of magnitude.  A margin
     * of at least the lattice's width plus height covers the whole
     * machine and recovers the unbounded sweep.
     */
    int anchorBoxMargin = 16;

    // -- CER cost-model toggles (Sec. IV-D; ablations) ----------------
    bool useLevelFactor = true;   ///< 2^l recomputation factor in C1
    bool useAreaExpansion = true; ///< sqrt((Na+Nn)/Na) factor in C0
    bool useCommFactor = true;    ///< S communication factor

    /**
     * Scale C0 by max(1, N_active / free_sites): holding garbage on a
     * nearly-full machine risks failing the next allocation outright,
     * so its effective cost diverges as capacity vanishes.
     */
    bool usePressure = true;

    /**
     * Weight of the ancestor gate-count contribution in the G_p
     * estimate.  The paper measures G_p to the parent's uncompute
     * point; since the parent's own decision is unknown when the child
     * decides, garbage may in fact be held to the end of the program.
     * 1.0 (default) accumulates the remaining gates of every open
     * ancestor frame (pessimistic, hold-to-end); 0.0 recovers the
     * paper-literal local estimate (ablation_cer compares both).
     */
    double holdHorizon = 1.0;

    /** Display name for reports. */
    std::string name = "SQUARE";

    /**
     * Decision script for ReclaimPolicy::Forced, consumed in program
     * order (one entry per Free point with garbage; exhausted entries
     * default to "keep").  Lets tooling enumerate the full decision
     * space and compare SQUARE against the true optimum on small
     * programs (the reversible-pebbling question of Sec. III-D).
     */
    std::vector<bool> forcedDecisions;

    /** Forced-policy configuration with the given decision script. */
    static SquareConfig forced(std::vector<bool> decisions);

    /**
     * Qubit reset latency in cycles for ReclaimPolicy::MeasureReset.
     * NISQ hardware without fast reset waits for natural decoherence
     * (milliseconds ~ 10^4 gate times); FT logical measurement costs
     * about one gate time (Sec. II-E).
     */
    int64_t resetLatency = 10000;

    /** Measurement-and-reset configuration. */
    static SquareConfig measureReset(int64_t reset_latency);

    // -- Stock configurations -----------------------------------------
    static SquareConfig eager();
    static SquareConfig lazy();
    static SquareConfig squareLaaOnly();
    static SquareConfig square();
};

inline SquareConfig
SquareConfig::eager()
{
    SquareConfig c;
    c.reclaim = ReclaimPolicy::Eager;
    c.alloc = AllocPolicy::Lifo;
    c.name = "EAGER";
    return c;
}

inline SquareConfig
SquareConfig::lazy()
{
    SquareConfig c;
    c.reclaim = ReclaimPolicy::Lazy;
    c.alloc = AllocPolicy::Lifo;
    c.name = "LAZY";
    return c;
}

inline SquareConfig
SquareConfig::squareLaaOnly()
{
    SquareConfig c;
    c.reclaim = ReclaimPolicy::Lazy;
    c.alloc = AllocPolicy::Locality;
    c.name = "SQUARE(LAA only)";
    return c;
}

inline SquareConfig
SquareConfig::square()
{
    SquareConfig c;
    c.reclaim = ReclaimPolicy::Cer;
    c.alloc = AllocPolicy::Locality;
    c.name = "SQUARE";
    return c;
}

inline SquareConfig
SquareConfig::measureReset(int64_t reset_latency)
{
    SquareConfig c;
    c.reclaim = ReclaimPolicy::MeasureReset;
    c.alloc = AllocPolicy::Locality;
    c.resetLatency = reset_latency;
    c.name = "M&R(" + std::to_string(reset_latency) + ")";
    return c;
}

inline SquareConfig
SquareConfig::forced(std::vector<bool> decisions)
{
    SquareConfig c;
    c.reclaim = ReclaimPolicy::Forced;
    c.alloc = AllocPolicy::Locality;
    c.forcedDecisions = std::move(decisions);
    c.name = "FORCED";
    return c;
}

} // namespace square

#endif // SQUARE_CORE_POLICY_H
