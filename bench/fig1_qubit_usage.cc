/**
 * @file
 * Fig. 1 reproduction: qubit usage over time for modular
 * exponentiation under Eager / Lazy / SQUARE.
 *
 * Prints a downsampled (time, live-qubits) series per policy, then one
 * row per policy with the area under its curve (= the active quantum
 * volume), the peak live qubits and the makespan.  Lazy climbs to the
 * machine's qubit ceiling, Eager stretches far out in time, and SQUARE
 * stays under both bounds with the smallest area.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.h"

using namespace square;
using namespace square::bench;

namespace {

/** Live count at time t per the step curve. */
int
liveAt(const std::vector<UsagePoint> &curve, int64_t t)
{
    int live = 0;
    for (const UsagePoint &p : curve) {
        if (p.time > t)
            break;
        live = p.live;
    }
    return live;
}

} // namespace

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fig1_qubit_usage", "active_quantum_volume",
               "Qubit usage over time, MODEXP", "Fig. 1");
    const BenchmarkInfo &info = findBenchmark("MODEXP");
    const std::vector<CompileResult> results = compileEach(
        info.build(), [&] { return boundaryMachine(info); },
        paperPolicies());

    // The usage curves themselves: the figure, not part of the JSON.
    int64_t max_time = 0;
    std::printf("%12s", "time");
    for (const CompileResult &r : results) {
        std::printf(" %16s", r.policyLabel.c_str());
        max_time = std::max(max_time, r.depth);
    }
    std::printf("\n");
    const int kSamples = 40;
    for (int i = 0; i <= kSamples; ++i) {
        const int64_t t = max_time * i / kSamples;
        std::printf("%12lld", static_cast<long long>(t));
        for (const CompileResult &r : results)
            std::printf(" %16d", liveAt(r.usageCurve, t));
        std::printf("\n");
    }
    std::printf("\n");

    fig.summary(str("workload", info.name));
    fig.summary(num("curve_samples", kSamples));
    for (const CompileResult &r : results) {
        fig.row({str("policy", r.policyLabel), num("aqv", r.aqv),
                 num("peak_live", r.peakLive),
                 num("makespan", r.depth)});
    }
    fig.note("The SQUARE curve should have the smallest area (lowest "
             "AQV), staying below\nLazy's qubit ceiling without Eager's "
             "time blow-up.");
    return fig.finish();
}
