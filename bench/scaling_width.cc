/**
 * @file
 * Width-scaling study: how the SQUARE-vs-Lazy AQV ratio grows with
 * problem size.
 *
 * The paper's Fig. 9 average (6.9x) comes from instances with
 * thousands of logical qubits; our defaults are reduced.  This bench
 * sweeps multiplier widths (the workload with the strongest
 * reservation pressure) to show the ratio climbing with scale, and the
 * machine sizes entering the paper's 100-10000 qubit range.
 */

#include "bench_common.h"
#include "workloads/arith.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "scaling_width", "aqv",
               "AQV ratio vs problem width (controlled multiplier)",
               "Fig. 9 scaling trend");
    for (int n : {8, 16, 32, 48, 64, 96, 128}) {
        const Program prog = makeMultiplier(n);

        // Size the machine to Lazy's needs (plus routing slack).
        const CompileResult probe = compile(
            prog, Machine::fullyConnected(100000), SquareConfig::lazy());
        int edge = 1;
        while (edge * edge < probe.peakLive + probe.peakLive / 10 + 8)
            ++edge;

        const std::vector<CompileResult> r = compileEach(
            prog, [edge] { return Machine::nisqLattice(edge, edge); },
            {SquareConfig::lazy(), SquareConfig::square()});
        fig.row({num("width", n), num("sites", edge * edge),
                 num("lazy_aqv", r[0].aqv), num("square_aqv", r[1].aqv),
                 fixed("ratio", static_cast<double>(r[0].aqv) /
                                    static_cast<double>(r[1].aqv)),
                 num("reclaims", r[1].reclaimCount)});
    }
    fig.note("The ratio grows with width toward the paper's "
             "large-instance averages.");
    return fig.finish();
}
