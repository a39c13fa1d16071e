/**
 * @file
 * Monte-Carlo stochastic-trajectory noise simulation (Sec. V-C3).
 *
 * Replaces the paper's Qiskit Aer runs: benchmark circuits are
 * classical reversible logic on basis states measured in the Z basis,
 * so (i) the X/Y components of depolarizing noise act as stochastic bit
 * flips, (ii) the Z component is invisible to the measurement, and
 * (iii) thermal relaxation is amplitude damping of |1> populations with
 * rate 1/T1 (pure dephasing, T2, is likewise invisible).  Under these
 * conditions sampling trajectories reproduces the exact measurement
 * distribution a density-matrix simulation would give.
 *
 * Each shot replays the recorded schedule on one byte per site,
 * stepping each gate through applyClassical() (sim/classical.h):
 *  - every gate flips each operand with probability p_err/2 (half of
 *    the depolarizing weight is Z-like and dropped);
 *  - SWAPs inject error three times (3 CNOTs);
 *  - between a site's consecutive gates, a |1> decays with probability
 *    1 - exp(-dt / T1).
 *
 * The measured outcome is the bit string at the primary qubits' final
 * sites; total variation distance against the noiseless outcome is the
 * d_TV of Fig. 8c.
 */

#ifndef SQUARE_NOISE_TRAJECTORY_H
#define SQUARE_NOISE_TRAJECTORY_H

#include <cstdint>
#include <span>
#include <unordered_map>

#include "core/compiler.h"
#include "noise/device_params.h"

namespace square {

/** Outcome histogram keyed by packed primary bits (little-endian). */
using OutcomeCounts = std::unordered_map<uint64_t, int64_t>;

/** Configuration for a Monte-Carlo run. */
struct TrajectoryConfig
{
    DeviceParams device = DeviceParams::simulation();
    int shots = 8192;
    uint64_t seed = 0x5eedcafe;
    /** Input bits of the primary qubits (packed little-endian). */
    uint64_t input = 0;
};

/** Result of a Monte-Carlo run. */
struct TrajectoryResult
{
    OutcomeCounts counts;
    uint64_t idealOutcome = 0; ///< noiseless outcome for the same input
    double tvd = 0.0;          ///< total variation distance to ideal
};

/**
 * Run @p cfg.shots noisy trajectories of @p schedule, the gates a
 * VectorTrace recorded while compiling @p r on a Clifford-free
 * (macro-Toffoli) machine of @p num_sites sites; fatal on a shot count
 * below one, an empty schedule or an H gate.
 */
TrajectoryResult runTrajectories(const CompileResult &r,
                                 std::span<const TimedGate> schedule,
                                 int num_sites,
                                 const TrajectoryConfig &cfg);

/**
 * Total variation distance between two outcome histograms
 * (normalized by their own totals).
 */
double totalVariationDistance(const OutcomeCounts &a,
                              const OutcomeCounts &b);

} // namespace square

#endif // SQUARE_NOISE_TRAJECTORY_H
