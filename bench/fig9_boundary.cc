/**
 * @file
 * Fig. 9 reproduction: normalized AQV on medium-scale
 * non-error-corrected machines (NISQ-FT boundary, swap communication).
 *
 * One row per large benchmark x policy: the AQV and the AQV normalized
 * to LAZY (the paper's chart normalizes the same way and annotates the
 * SQUARE bar); the geomean LAZY/SQUARE ratio is a summary field.
 */

#include <cmath>

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fig9_boundary", "aqv",
               "Normalized AQV, NISQ-FT boundary machines (swaps)",
               "Fig. 9");
    const char *names[] = {"LAZY", "EAGER", "SQUARE-LAA", "SQUARE"};

    double geo = 1.0;
    int count = 0;
    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        if (info.nisqScale)
            continue;
        const std::vector<CompileResult> results = compileEach(
            info.build(), [&] { return boundaryMachine(info); },
            figurePolicies());
        const double lazy = static_cast<double>(results[0].aqv);
        for (int k = 0; k < 4; ++k) {
            fig.row({str("workload", info.name),
                     num("sites", info.boundaryEdge * info.boundaryEdge),
                     str("policy", names[k]), num("aqv", results[k].aqv),
                     fixed("aqv_norm_lazy",
                           static_cast<double>(results[k].aqv) / lazy,
                           4)});
        }
        geo *= lazy / static_cast<double>(results[3].aqv);
        ++count;
    }
    fig.summary(
        fixed("geomean_lazy_over_square", std::pow(geo, 1.0 / count), 2));
    fig.note("(paper reports 6.9x average on its larger instances)");
    return fig.finish();
}
