/**
 * @file
 * Ablation: the CER cost-model terms (Eq. 1-2 and our extensions).
 *
 * Disables one model term at a time and reports AQV plus the number of
 * reclaim/skip decisions on representative large benchmarks:
 *
 *  - no 2^l:        drop the recursive-recomputation level factor;
 *  - no area:       drop the sqrt((Na+Nn)/Na) reservation term;
 *  - no S:          drop the communication factor;
 *  - no pressure:   drop the qubit-pressure divergence;
 *  - local G_p:     paper-literal gates-to-parent estimate
 *                   (holdHorizon = 0) instead of the hold-to-end
 *                   accumulation.
 */

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "ablation_cer", "aqv",
               "CER cost-model ablation", "design study (Sec. IV-D)");
    std::vector<SquareConfig> variants(6, SquareConfig::square());
    variants[0].name = "SQUARE (full)";
    variants[1].name = "no 2^l";
    variants[1].useLevelFactor = false;
    variants[2].name = "no area term";
    variants[2].useAreaExpansion = false;
    variants[3].name = "no S factor";
    variants[3].useCommFactor = false;
    variants[4].name = "no pressure";
    variants[4].usePressure = false;
    variants[5].name = "local G_p (paper-literal)";
    variants[5].holdHorizon = 0.0;

    for (const char *name : {"MODEXP", "MUL32", "SALSA20", "Jasmine"}) {
        const BenchmarkInfo &info = findBenchmark(name);
        for (const CompileResult &r : compileEach(
                 info.build(), [&] { return boundaryMachine(info); },
                 variants)) {
            fig.row({str("workload", name), str("variant", r.policyLabel),
                     num("aqv", r.aqv), num("gates", r.gates),
                     num("reclaims", r.reclaimCount),
                     num("skips", r.skipCount)});
        }
    }
    return fig.finish();
}
