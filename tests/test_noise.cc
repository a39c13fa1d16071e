/**
 * @file
 * Unit tests for the noise models: analytical success rate and
 * Monte-Carlo trajectory simulation.
 */

#include <gtest/gtest.h>

#include <string>


#include "common/logging.h"

#include "arch/machine.h"
#include "core/compiler.h"
#include "noise/analytical.h"
#include "noise/trajectory.h"
#include "workloads/arith.h"

namespace square {
namespace {

/** ADDER(3) on a 6x6 macro lattice; a non-null @p schedule records it. */
CompileResult
compileAdder(const SquareConfig &cfg, VectorTrace *schedule = nullptr)
{
    Program prog = makeAdder(3);
    Machine m = Machine::nisqLatticeMacro(6, 6);
    CompileOptions opts;
    opts.extraSink = schedule;
    return compile(prog, m, cfg, opts);
}

TEST(Analytical, InUnitIntervalAndMonotone)
{
    CompileResult r = compileAdder(SquareConfig::square());
    DeviceParams dev = DeviceParams::analyticalModel();
    auto est = estimateSuccess(r, dev);
    EXPECT_GT(est.total, 0.0);
    EXPECT_LE(est.total, 1.0);
    EXPECT_NEAR(est.total, est.gateSuccess * est.coherenceSuccess,
                1e-12);

    // More noise -> lower success.
    DeviceParams worse = dev;
    worse.twoQubitError *= 10;
    worse.t1Us /= 10;
    auto est2 = estimateSuccess(r, worse);
    EXPECT_LT(est2.total, est.total);
}

TEST(Analytical, IonqCoherenceNearPerfect)
{
    CompileResult r = compileAdder(SquareConfig::square());
    auto est = estimateSuccess(r, DeviceParams::ionq());
    EXPECT_GT(est.coherenceSuccess, 0.999);
}

TEST(Trajectory, NoiselessLimitIsExactlyIdeal)
{
    VectorTrace schedule;
    CompileResult r = compileAdder(SquareConfig::square(), &schedule);
    TrajectoryConfig cfg;
    cfg.device.oneQubitError = 0.0;
    cfg.device.twoQubitError = 0.0;
    cfg.device.toffoliError = 0.0;
    cfg.device.t1Us = 1e12;
    cfg.shots = 64;
    cfg.input = 1 | (3u << 1) | (2u << 4); // ctrl=1, a=3, b=2
    auto res = runTrajectories(r, schedule.gates(), 36, cfg);
    EXPECT_EQ(res.tvd, 0.0);
    ASSERT_EQ(res.counts.size(), 1u);
    EXPECT_EQ(res.counts.begin()->first, res.idealOutcome);
    // ideal outcome: b = 5
    EXPECT_EQ((res.idealOutcome >> 4) & 7, 5u);
}

TEST(Trajectory, NoiseProducesSpread)
{
    VectorTrace schedule;
    CompileResult r = compileAdder(SquareConfig::square(), &schedule);
    TrajectoryConfig cfg;
    cfg.device = DeviceParams::simulation();
    cfg.shots = 512;
    cfg.input = 1 | (3u << 1) | (2u << 4);
    auto res = runTrajectories(r, schedule.gates(), 36, cfg);
    EXPECT_GT(res.tvd, 0.0);
    EXPECT_LE(res.tvd, 1.0);
    EXPECT_GT(res.counts.size(), 1u);
}

TEST(Trajectory, DeterministicForSeed)
{
    VectorTrace schedule;
    CompileResult r = compileAdder(SquareConfig::square(), &schedule);
    TrajectoryConfig cfg;
    cfg.shots = 256;
    cfg.input = 0b0110;
    auto a = runTrajectories(r, schedule.gates(), 36, cfg);
    auto b = runTrajectories(r, schedule.gates(), 36, cfg);
    EXPECT_EQ(a.tvd, b.tvd);
    cfg.seed ^= 1;
    auto c = runTrajectories(r, schedule.gates(), 36, cfg);
    // almost surely different histogram
    EXPECT_NE(a.counts, c.counts);
}

TEST(Trajectory, RequiresTrace)
{
    CompileResult r = compileAdder(SquareConfig::square());
    TrajectoryConfig cfg;
    EXPECT_THROW(runTrajectories(r, {}, 36, cfg), FatalError);
}

TEST(Trajectory, RefusesNonPositiveShots)
{
    VectorTrace schedule;
    CompileResult r = compileAdder(SquareConfig::square(), &schedule);
    TrajectoryConfig cfg;
    for (int shots : {0, -5}) {
        cfg.shots = shots;
        try {
            runTrajectories(r, schedule.gates(), 36, cfg);
            ADD_FAILURE() << "ran " << shots << " shots";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "at least one shot, got " +
                          std::to_string(shots)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Tvd, Identities)
{
    OutcomeCounts a{{0, 50}, {1, 50}};
    OutcomeCounts b{{0, 50}, {1, 50}};
    EXPECT_DOUBLE_EQ(totalVariationDistance(a, b), 0.0);

    OutcomeCounts c{{2, 100}};
    EXPECT_DOUBLE_EQ(totalVariationDistance(a, c), 1.0);

    OutcomeCounts d{{0, 100}};
    EXPECT_DOUBLE_EQ(totalVariationDistance(a, d), 0.5);

    // normalization independence
    OutcomeCounts e{{0, 5}, {1, 5}};
    EXPECT_DOUBLE_EQ(totalVariationDistance(a, e), 0.0);

    OutcomeCounts empty;
    EXPECT_THROW(totalVariationDistance(a, empty), FatalError);
}

TEST(Trajectory, TvdMonotoneInErrorRate)
{
    VectorTrace schedule;
    CompileResult r = compileAdder(SquareConfig::square(), &schedule);
    double prev = -1.0;
    for (double scale : {0.1, 1.0, 10.0}) {
        TrajectoryConfig cfg;
        cfg.device = DeviceParams::trajectoryModel();
        cfg.device.oneQubitError *= scale;
        cfg.device.twoQubitError *= scale;
        cfg.device.toffoliError *= scale;
        cfg.shots = 2048;
        cfg.input = 0b0110;
        auto res = runTrajectories(r, schedule.gates(), 36, cfg);
        EXPECT_GT(res.tvd, prev) << "scale " << scale;
        prev = res.tvd;
    }
}

TEST(Trajectory, DampingDecaysExcitedInputs)
{
    // With gate errors off and a short T1, |1> inputs decay toward 0:
    // the ideal outcome becomes rare.
    VectorTrace schedule;
    CompileResult r = compileAdder(SquareConfig::square(), &schedule);
    TrajectoryConfig cfg;
    cfg.device.oneQubitError = 0.0;
    cfg.device.twoQubitError = 0.0;
    cfg.device.toffoliError = 0.0;
    cfg.device.t1Us = 0.5; // brutally short
    cfg.shots = 1024;
    cfg.input = 0b1111111; // many excited qubits
    auto res = runTrajectories(r, schedule.gates(), 36, cfg);
    EXPECT_GT(res.tvd, 0.5);
    // All-zero input with no flips cannot decay at all.
    cfg.input = 0;
    auto res0 = runTrajectories(r, schedule.gates(), 36, cfg);
    EXPECT_EQ(res0.tvd, 0.0);
}

TEST(Analytical, LowerAqvNeverHurtsCoherence)
{
    CompileResult a = compileAdder(SquareConfig::square());
    CompileResult b = compileAdder(SquareConfig::lazy());
    DeviceParams dev = DeviceParams::analyticalModel();
    auto ea = estimateSuccess(a, dev);
    auto eb = estimateSuccess(b, dev);
    if (a.aqv <= b.aqv)
        EXPECT_GE(ea.coherenceSuccess, eb.coherenceSuccess);
    else
        EXPECT_LT(ea.coherenceSuccess, eb.coherenceSuccess);
}

TEST(DeviceParams, PresetsSane)
{
    for (auto dev : {DeviceParams::simulation(), DeviceParams::ibm(),
                     DeviceParams::ionq(),
                     DeviceParams::analyticalModel()}) {
        EXPECT_GT(dev.t1Us, 0.0);
        EXPECT_GE(dev.twoQubitError, dev.oneQubitError);
        EXPECT_GT(dev.cycleNs, 0.0);
    }
}

} // namespace
} // namespace square
