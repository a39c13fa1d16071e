/**
 * @file
 * Machine-fitting experiment (the paper's headline claim: SQUARE
 * "fits computations into resource-constrained NISQ machines").
 *
 * For each benchmark and policy, finds the smallest square lattice on
 * which compilation succeeds (binary search over the edge; compilation
 * throws when allocation finds no free site).  SQUARE should fit on
 * machines close to Eager's minimum while Lazy needs the largest.
 */

#include "bench_common.h"
#include "common/logging.h"

using namespace square;
using namespace square::bench;

namespace {

/** True when @p prog compiles on an edge x edge lattice. */
bool
fits(const Program &prog, const SquareConfig &cfg, int edge)
{
    try {
        compile(prog, Machine::nisqLattice(edge, edge), cfg);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

/** Smallest fitting edge, searching up from @p hi_edge; -1 past 256. */
int
minEdge(const Program &prog, const SquareConfig &cfg, int hi_edge)
{
    int lo = 2, hi = hi_edge;
    while (!fits(prog, cfg, hi)) {
        hi *= 2;
        if (hi > 256)
            return -1;
    }
    while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (fits(prog, cfg, mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return hi;
}

} // namespace

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fit_minsize", "lattice edge (sites = edge^2)",
               "Smallest machine per policy", "Sec. I / Fig. 1 claim");
    const char *names[] = {"lazy", "eager", "square"};
    const std::vector<SquareConfig> policies = paperPolicies();

    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        const Program prog = info.build();
        const int hi = info.nisqScale ? 8 : info.boundaryEdge;
        for (int p = 0; p < 3; ++p) {
            const int edge = minEdge(prog, policies[p], hi);
            const int64_t sites = edge < 0 ? -1 : int64_t{edge} * edge;
            fig.row({str("workload", info.name), str("policy", names[p]),
                     num("min_edge", edge), num("min_sites", sites)});
        }
    }
    fig.note("SQUARE's reclamation-under-pressure lets programs fit "
             "machines far smaller\nthan Lazy requires, approaching "
             "Eager's minimum footprint.");
    return fig.finish();
}
