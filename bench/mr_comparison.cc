/**
 * @file
 * Uncomputation vs measurement-and-reset (Sec. II-E).
 *
 * The paper argues M&R is unattractive on NISQ machines (qubit reset
 * waits for natural decoherence, ~milliseconds = ~10^4 gate times) but
 * cheap on FT machines (logical measurement ~ one gate), while
 * uncomputation works at any latency and - unlike M&R - remains valid
 * when the program runs on superposition inputs (e.g. as a Grover
 * oracle).  This bench quantifies the latency trade-off on classical-
 * basis executions where M&R is admissible at all.
 */

#include "bench_common.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "mr_comparison", "aqv",
               "Uncomputation vs measurement-and-reset",
               "Sec. II-E comparison");
    const std::vector<SquareConfig> configs = {
        SquareConfig::lazy(),
        SquareConfig::square(),
        SquareConfig::measureReset(10000), // NISQ: decoherence reset
        SquareConfig::measureReset(100),   // fast active reset
        SquareConfig::measureReset(2),     // FT logical measurement
    };
    for (const char *name : {"MODEXP", "MUL32", "SALSA20"}) {
        const BenchmarkInfo &info = findBenchmark(name);
        for (const CompileResult &r : compileEach(
                 info.build(), [&] { return boundaryMachine(info); },
                 configs)) {
            fig.row({str("workload", name), str("policy", r.policyLabel),
                     num("aqv", r.aqv), num("gates", r.gates),
                     num("peak_live", r.peakLive),
                     num("depth", r.depth)});
        }
    }
    fig.note(
        "M&R(2) approximates FT logical measurement; M&R(10000) the\n"
        "decoherence-based reset of today's NISQ machines.  M&R is\n"
        "admissible only for classical-basis executions; uncomputation\n"
        "(SQUARE) is required when the circuit runs on superpositions.");
    return fig.finish();
}
