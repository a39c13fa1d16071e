/**
 * @file
 * Optimality-gap study: how close is SQUARE's greedy CER to the true
 * optimum?
 *
 * Finding optimal reclamation points is PSPACE-complete in general
 * (Sec. III-D cites the reversible-pebbling results); on small programs
 * we can brute-force the entire decision space with the Forced policy
 * (one bit per Free point, consumed in program order) and measure the
 * minimum-achievable AQV.  SQUARE's gap to that optimum - and the
 * baselines' - quantifies the quality of the heuristic.
 */

#include "bench_common.h"
#include "common/logging.h"

using namespace square;
using namespace square::bench;

namespace {

struct OptResult
{
    int64_t bestAqv;
    int decisionPoints;
    int64_t evaluated;
};

OptResult
bruteForce(const Program &prog, int edge, int max_bits)
{
    // Decision-point count is maximal when nothing reclaims (holding
    // garbage keeps ancestors' Free points non-trivial).
    const CompileResult lazy = compile(
        prog, Machine::nisqLattice(edge, edge), SquareConfig::lazy());
    const int k = lazy.reclaimCount + lazy.skipCount;

    OptResult out{INT64_MAX, k, 0};
    if (k > max_bits) {
        warn("decision space too large; skipping");
        return out;
    }
    for (uint64_t bits = 0; bits < (uint64_t{1} << k); ++bits) {
        std::vector<bool> decisions(static_cast<size_t>(k));
        for (int i = 0; i < k; ++i)
            decisions[static_cast<size_t>(i)] = (bits >> i) & 1;
        const CompileResult r =
            compile(prog, Machine::nisqLattice(edge, edge),
                    SquareConfig::forced(decisions));
        ++out.evaluated;
        out.bestAqv = std::min(out.bestAqv, r.aqv);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "opt_gap", "aqv",
               "Greedy CER vs brute-force optimal reclamation",
               "design study (Sec. III-D)");
    const int kEdge = 5;
    for (const char *name :
         {"ADDER4", "RD53", "2OF5", "Elsa-s", "Belle-s"}) {
        const Program prog = makeBenchmark(name);
        const OptResult opt = bruteForce(prog, kEdge, /*max_bits=*/16);
        if (opt.bestAqv == INT64_MAX) {
            fig.row({str("benchmark_name", name),
                     num("decision_points", opt.decisionPoints),
                     num("skipped", 1)});
            continue;
        }
        for (const CompileResult &r : compileEach(
                 prog, [] { return Machine::nisqLattice(kEdge, kEdge); },
                 figurePolicies())) {
            const double gap_pct =
                100.0 * (static_cast<double>(r.aqv) /
                             static_cast<double>(opt.bestAqv) -
                         1.0);
            fig.row({str("benchmark_name", name),
                     str("policy", r.policyLabel), num("aqv", r.aqv),
                     num("optimal_aqv", opt.bestAqv),
                     fixed("gap_vs_optimal_pct", gap_pct, 2),
                     num("decision_points", opt.decisionPoints),
                     num("schedules_evaluated", opt.evaluated)});
        }
    }
    fig.note("The optimum is over reclamation decisions *given LAA "
             "allocation*; LAZY/EAGER\nuse the LIFO allocator and can "
             "occasionally land outside that space.");
    return fig.finish();
}
