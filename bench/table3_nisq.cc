/**
 * @file
 * Table III reproduction: NISQ benchmark compilation results.
 *
 * For each NISQ benchmark and each policy (Lazy / Eager / SQUARE), one
 * row of #gates (excluding swaps), #qubits (machine footprint), circuit
 * depth (makespan cycles), and #swaps, on a 5x5 NISQ lattice with
 * Clifford+T Toffoli decomposition.
 */

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "table3_nisq", "gate_and_qubit_counts",
               "NISQ benchmark compilation results", "Table III");
    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        if (!info.nisqScale)
            continue;
        for (const CompileResult &r :
             compileEach(info.build(), nisqMachine, paperPolicies())) {
            fig.row({str("workload", info.name),
                     str("policy", r.policyLabel), num("gates", r.gates),
                     num("qubits", r.qubitsUsed), num("depth", r.depth),
                     num("swaps", r.swaps)});
        }
    }
    fig.note("Note: gate counts are Clifford+T (Toffoli lowered to the "
             "15-gate circuit);\nswaps are counted separately as in the "
             "paper.");
    return fig.finish();
}
