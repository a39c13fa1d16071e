/**
 * @file
 * Fig. 8c reproduction: Monte-Carlo noise simulation of the NISQ
 * benchmarks; total variation distance between noisy and ideal
 * measurement outcomes (lower is better), one row per benchmark x
 * policy.
 *
 * Traces are compiled on the macro-Toffoli lattice (Clifford-free so
 * basis-state trajectories are exact; swap/locality behaviour is
 * identical to the decomposed machine) and replayed under the
 * depolarizing + T1 damping model of Table IV's "Our Simulation" row,
 * with a fixed shot budget per point.
 */

#include "bench_common.h"
#include "noise/trajectory.h"

using namespace square;
using namespace square::bench;

int
main(int argc, char **argv)
{
    Figure fig(argc, argv, "fig8c_noise", "total_variation_distance",
               "Noise simulation: total variation distance", "Fig. 8c");
    const int kShots = 4096;
    fig.summary(num("shots", kShots));
    const std::vector<SquareConfig> policies = paperPolicies();

    for (const BenchmarkInfo &info : benchmarkRegistry()) {
        if (!info.nisqScale)
            continue;
        const Program prog = info.build();
        double tvd[3];
        int best = 0;
        for (int k = 0; k < 3; ++k) {
            // compileEach() attaches no sink; the trajectories replay
            // the recorded schedule.
            const Machine m = Machine::nisqLatticeMacro(5, 5);
            VectorTrace schedule;
            CompileOptions opts;
            opts.extraSink = &schedule;
            const CompileResult r = compile(prog, m, policies[k], opts);

            TrajectoryConfig tc;
            tc.device = DeviceParams::trajectoryModel();
            tc.shots = kShots;
            tc.seed = 0x5eed0000 + static_cast<uint64_t>(k);
            tc.input = 0b1011; // fixed nonzero input
            tvd[k] = runTrajectories(r, schedule.gates(), m.numSites(), tc)
                         .tvd;
            if (tvd[k] < tvd[best])
                best = k;
        }
        for (int k = 0; k < 3; ++k) {
            fig.row({str("workload", info.name),
                     str("policy", policies[k].name),
                     fixed("tvd", tvd[k], 4), num("best", k == best)});
        }
    }
    fig.note("Lower d_TV is better; the paper finds SQUARE lowest on "
             "almost all benchmarks\n(paper: 8192 shots per point).");
    return fig.finish();
}
