/**
 * @file
 * Ablation: Locality-Aware Allocation scoring (Sec. IV-C).
 *
 * Compares LIFO allocation against LAA with individual scoring terms
 * removed, reporting AQV, swaps and depth across the NISQ suite
 * (reclamation fixed to the full CER policy so only allocation
 * varies).
 */

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "ablation_laa", "aqv", "LAA scoring ablation",
               "design study (Sec. IV-C)");
    std::vector<SquareConfig> variants(5, SquareConfig::square());
    variants[0].name = "LIFO heap";
    variants[0].alloc = AllocPolicy::Lifo;
    variants[1].name = "LAA (full)";
    variants[2].name = "LAA, no serialization";
    variants[2].serializationWeight = 0.0;
    variants[3].name = "LAA, no area term";
    variants[3].areaWeight = 0.0;
    variants[4].name = "LAA, candidateCap=2";
    variants[4].candidateCap = 2;

    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        if (!info.nisqScale)
            continue;
        for (const CompileResult &r :
             compileEach(info.build(), nisqMachine, variants)) {
            fig.row({str("workload", info.name),
                     str("variant", r.policyLabel), num("aqv", r.aqv),
                     num("swaps", r.swaps), num("depth", r.depth)});
        }
    }
    return fig.finish();
}
