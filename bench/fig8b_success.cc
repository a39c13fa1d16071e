/**
 * @file
 * Fig. 8b reproduction: worst-case analytical success rates of the
 * NISQ benchmarks under Lazy / Eager / SQUARE with the Table IV-style
 * device parameters of DeviceParams::analyticalModel().  One row per
 * benchmark (success rate per policy plus the winner); the per-policy
 * geomeans and SQUARE's improvement ratios are summary fields.
 */

#include <cmath>

#include "bench_common.h"
#include "noise/analytical.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fig8b_success", "success_probability",
               "Worst-case analytical success rate",
               "Fig. 8b (and Table IV parameters)");
    const DeviceParams dev = DeviceParams::analyticalModel();
    const std::vector<SquareConfig> policies = paperPolicies();

    double geo[3] = {1.0, 1.0, 1.0};
    int count = 0;
    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        if (!info.nisqScale)
            continue;
        const std::vector<CompileResult> results =
            compileEach(info.build(), nisqMachine, policies);
        double rate[3];
        int best = 0;
        for (int k = 0; k < 3; ++k) {
            rate[k] = estimateSuccess(results[k], dev).total;
            geo[k] *= rate[k];
            if (rate[k] > rate[best])
                best = k;
        }
        ++count;
        fig.row({str("workload", info.name), fixed("lazy", rate[0], 4),
                 fixed("eager", rate[1], 4), fixed("square", rate[2], 4),
                 str("best", policies[best].name)});
    }
    for (double &g : geo)
        g = std::pow(g, 1.0 / count);
    fig.summary(fixed("geomean_lazy", geo[0], 4));
    fig.summary(fixed("geomean_eager", geo[1], 4));
    fig.summary(fixed("geomean_square", geo[2], 4));
    fig.summary(fixed("square_vs_eager", geo[2] / geo[1], 2));
    fig.summary(fixed("square_vs_lazy", geo[2] / geo[0], 2));
    fig.note("Model (noise/device_params.h): 1q error ",
             dev.oneQubitError, ", 2q error ", dev.twoQubitError, ", T1 ",
             dev.t1Us, " us, cycle ", dev.cycleNs, " ns.");
    fig.note("(paper reports 1.47x vs Eager and 1.07x vs Lazy on its "
             "instances)");
    return fig.finish();
}
