/**
 * @file
 * Fig. 8a reproduction: active quantum volume of the NISQ benchmarks
 * under LAZY / EAGER / SQUARE(LAA only) / SQUARE on the 5x5 lattice,
 * one row per workload x policy.  Lower AQV is better.
 */

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fig8a_aqv", "aqv",
               "Active quantum volume, NISQ benchmarks", "Fig. 8a");
    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        if (!info.nisqScale)
            continue;
        for (const CompileResult &r :
             compileEach(info.build(), nisqMachine, figurePolicies())) {
            fig.row({str("workload", info.name),
                     str("policy", r.policyLabel), num("aqv", r.aqv)});
        }
    }
    return fig.finish();
}
