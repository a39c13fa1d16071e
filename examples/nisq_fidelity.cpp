/**
 * @file
 * End-to-end NISQ fidelity study: compile a benchmark under each
 * policy, estimate its success rate analytically, and cross-check with
 * Monte-Carlo noise trajectories - the Sec. V-C methodology on one
 * program.
 *
 * Run: ./build/examples/nisq_fidelity [benchmark] [shots]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/machine.h"
#include "core/compiler.h"
#include "noise/analytical.h"
#include "noise/trajectory.h"
#include "workloads/registry.h"

using namespace square;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "2OF5";
    const int shots = argc > 2 ? std::atoi(argv[2]) : 4096;

    Program prog = makeBenchmark(name);
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
