/**
 * @file
 * End-to-end NISQ fidelity study: compile a benchmark under each
 * policy, estimate its success rate analytically, and cross-check with
 * Monte-Carlo noise trajectories - the Sec. V-C methodology on one
 * program.
 *
 * Run: ./build/example_nisq_fidelity [benchmark] [shots]
 * (a Table II name, default 2OF5; shots >= 1, default 4096).  A bad
 * argument exits 1 with a message naming it.
 */

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "arch/machine.h"
#include "common/flags.h"
#include "core/compiler.h"
#include "noise/analytical.h"
#include "noise/trajectory.h"
#include "workloads/registry.h"

using namespace square;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "2OF5";
    int64_t shots_arg = 4096;
    if (argc > 2 && !parseInt(argv[2], 1, std::numeric_limits<int>::max(),
                              shots_arg)) {
        std::fprintf(stderr,
                     "nisq_fidelity: bad shots '%s' (an integer >= 1)\n",
                     argv[2]);
        return 1;
    }
    const int shots = static_cast<int>(shots_arg);
    const BenchmarkInfo *bench = nullptr;
    for (const BenchmarkInfo &b : benchmarkRegistry()) {
        if (b.name == name)
            bench = &b;
    }
    if (bench == nullptr) {
        std::fprintf(stderr, "nisq_fidelity: unknown benchmark '%s'\n",
                     name.c_str());
        return 1;
    }

    Program prog = bench->build();
    std::printf("benchmark %s: %d primary qubits, %zu modules\n\n",
                name.c_str(), prog.numPrimary(), prog.modules.size());

    std::printf("%-18s %8s %8s %8s | %12s %12s | %8s\n", "policy",
                "gates", "swaps", "AQV", "P(analytic)", "P(shots)",
                "d_TV");

    for (const SquareConfig &cfg :
         {SquareConfig::lazy(), SquareConfig::eager(),
          SquareConfig::square()}) {
        // Analytical model on the realistic (decomposed) machine.
        Machine decomposed = Machine::nisqLattice(5, 5);
        CompileResult ra = compile(prog, decomposed, cfg, {});
        SuccessEstimate est =
            estimateSuccess(ra, DeviceParams::analyticalModel());

        // Monte-Carlo trajectories on the macro-Toffoli twin machine.
        Machine macro = Machine::nisqLatticeMacro(5, 5);
        VectorTrace schedule;
        CompileOptions opts;
        opts.extraSink = &schedule;
        CompileResult rt = compile(prog, macro, cfg, opts);

        TrajectoryConfig tc;
        tc.device = DeviceParams::trajectoryModel();
        tc.shots = shots;
        tc.input = 0b1011;
        TrajectoryResult res =
            runTrajectories(rt, schedule.gates(), macro.numSites(), tc);

        double p_shots = 0.0;
        if (auto it = res.counts.find(res.idealOutcome);
            it != res.counts.end()) {
            p_shots = static_cast<double>(it->second) / shots;
        }

        std::printf("%-18s %8lld %8lld %8lld | %12.4f %12.4f | %8.4f\n",
                    cfg.name.c_str(), static_cast<long long>(ra.gates),
                    static_cast<long long>(ra.swaps),
                    static_cast<long long>(ra.aqv), est.total, p_shots,
                    res.tvd);
    }

    std::printf("\nP(analytic) uses the worst-case model "
                "(gate fidelities x coherence);\nP(shots) is the "
                "frequency of the ideal outcome over %d noisy "
                "trajectories.\n",
                shots);
    return 0;
}
