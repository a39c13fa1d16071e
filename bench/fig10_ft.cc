/**
 * @file
 * Fig. 10 reproduction: normalized AQV on fault-tolerant machines
 * (surface-code logical qubits, braid communication, slow T gates).
 *
 * One row per large benchmark x policy, as in Fig. 9; the average and
 * maximum AQV reduction of SQUARE vs LAZY are summary fields.
 */

#include <algorithm>

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fig10_ft", "aqv",
               "Normalized AQV, fault-tolerant machines (braiding)",
               "Fig. 10");
    const char *names[] = {"LAZY", "EAGER", "SQUARE-LAA", "SQUARE"};

    double sum_reduction = 0.0;
    double max_reduction = 0.0;
    int count = 0;
    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        if (info.nisqScale)
            continue;
        const std::vector<CompileResult> results = compileEach(
            info.build(), [&] { return ftMachine(info); },
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
        const double reduction =
            1.0 - static_cast<double>(results[3].aqv) / lazy;
        sum_reduction += reduction;
        max_reduction = std::max(max_reduction, reduction);
        ++count;
    }
    fig.summary(
        fixed("avg_reduction_pct", 100.0 * sum_reduction / count, 1));
    fig.summary(fixed("max_reduction_pct", 100.0 * max_reduction, 1));
    fig.note("(paper reports 44.08% average, up to 89.66%)");
    return fig.finish();
}
