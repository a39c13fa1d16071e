/**
 * @file
 * Fig. 5 reproduction: locality changes the preferred reclamation
 * strategy.
 *
 * Belle (light workload, deeply nested, ancilla-hungry) prefers Eager
 * on a 2-D lattice (reservation expands the active area and swap
 * chains) but Lazy on a fully-connected machine (holding garbage costs
 * nothing in communication).  SQUARE should track the winner on both.
 * One row per machine x policy; the preferred baseline per machine is
 * a summary field.
 */

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fig5_belle_topology", "aqv",
               "Belle: preferred strategy vs machine connectivity",
               "Fig. 5");
    const BenchmarkInfo &info = findBenchmark("Belle");
    const Program prog = info.build();
    const int edge = info.boundaryEdge;

    std::string preferred[2];
    for (int full = 0; full < 2; ++full) {
        const std::vector<CompileResult> results = compileEach(
            prog,
            [&] {
                return full ? Machine::fullyConnected(edge * edge)
                            : Machine::nisqLattice(edge, edge);
            },
            figurePolicies());
        int64_t best_aqv = INT64_MAX;
        for (const CompileResult &r : results) {
            fig.row({str("machine", r.machineLabel),
                     str("policy", r.policyLabel), num("aqv", r.aqv),
                     num("gates", r.gates), num("swaps", r.swaps)});
            if ((r.policyLabel == "LAZY" || r.policyLabel == "EAGER") &&
                r.aqv < best_aqv) {
                best_aqv = r.aqv;
                preferred[full] = r.policyLabel;
            }
        }
    }
    fig.summary(str("preferred_lattice", preferred[0]));
    fig.summary(str("preferred_fully_connected", preferred[1]));
    fig.note("Expected (paper): EAGER preferred on the lattice, LAZY on "
             "fully-connected.");
    return fig.finish();
}
