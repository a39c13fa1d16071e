#include "noise/trajectory.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/classical.h"

namespace square {

namespace {

/** One trajectory: replay the schedule with stochastic errors. */
uint64_t
runOneShot(const CompileResult &r, std::span<const TimedGate> schedule,
           int num_sites, const TrajectoryConfig &cfg, Rng &rng,
           bool noiseless)
{
    const DeviceParams &dev = cfg.device;
    std::vector<uint8_t> bits(static_cast<size_t>(num_sites), 0);
    std::vector<int64_t> last_touch(static_cast<size_t>(num_sites), 0);

    for (size_t i = 0; i < r.primaryInitialSites.size(); ++i) {
        if ((cfg.input >> i) & 1)
            bits[static_cast<size_t>(r.primaryInitialSites[i])] = 1;
    }

    const double t1_cycles = dev.t1Us * 1000.0 / dev.cycleNs;

    auto damp = [&](PhysQubit s, int64_t now) {
        if (noiseless)
            return;
        int64_t dt = now - last_touch[static_cast<size_t>(s)];
        if (dt > 0 && bits[static_cast<size_t>(s)]) {
            double p_decay =
                1.0 - std::exp(-static_cast<double>(dt) / t1_cycles);
            if (rng.coin(p_decay))
                bits[static_cast<size_t>(s)] = 0;
        }
    };

    auto flip_error = [&](PhysQubit s, double p, int times) {
        if (noiseless)
            return;
        for (int k = 0; k < times; ++k) {
            // Half of the depolarizing weight flips in the Z basis.
            if (rng.coin(p * 0.5))
                bits[static_cast<size_t>(s)] ^= 1;
        }
    };

    for (const TimedGate &g : schedule) {
        const int arity = g.arity;
        for (int i = 0; i < arity; ++i)
            damp(g.sites[static_cast<size_t>(i)], g.start);

        applyClassical(g, bits.data());

        switch (g.kind) {
          case GateKind::X:
            flip_error(g.sites[0], dev.oneQubitError, 1);
            break;
          case GateKind::CNOT:
          case GateKind::CZ:
            flip_error(g.sites[0], dev.twoQubitError, 1);
            flip_error(g.sites[1], dev.twoQubitError, 1);
            break;
          case GateKind::Swap:
            // 3 back-to-back CNOTs
            flip_error(g.sites[0], dev.twoQubitError, 3);
            flip_error(g.sites[1], dev.twoQubitError, 3);
            break;
          case GateKind::Toffoli:
            flip_error(g.sites[0], dev.toffoliError, 1);
            flip_error(g.sites[1], dev.toffoliError, 1);
            flip_error(g.sites[2], dev.toffoliError, 1);
            break;
          default:
            flip_error(g.sites[0], dev.oneQubitError, 1);
            break;
        }

        for (int i = 0; i < arity; ++i)
            last_touch[static_cast<size_t>(g.sites[static_cast<size_t>(
                i)])] = g.end();
    }

    // Final idle window until measurement at program end.
    int64_t makespan = r.depth;
    for (PhysQubit s : r.primaryFinalSites)
        damp(s, makespan);

    uint64_t outcome = 0;
    for (size_t i = 0; i < r.primaryFinalSites.size(); ++i) {
        if (bits[static_cast<size_t>(r.primaryFinalSites[i])])
            outcome |= uint64_t{1} << i;
    }
    return outcome;
}

} // namespace

TrajectoryResult
runTrajectories(const CompileResult &r, std::span<const TimedGate> schedule,
                int num_sites, const TrajectoryConfig &cfg)
{
    if (cfg.shots <= 0)
        fatal("trajectory simulation needs at least one shot, got ",
              cfg.shots);
    if (schedule.empty())
        fatal("trajectory simulation requires a recorded schedule");
    if (r.primaryFinalSites.size() > 64)
        fatal("trajectory simulation supports at most 64 primary qubits");

    Rng rng(cfg.seed);
    TrajectoryResult out;
    out.idealOutcome = runOneShot(r, schedule, num_sites, cfg, rng, true);

    for (int s = 0; s < cfg.shots; ++s) {
        uint64_t o = runOneShot(r, schedule, num_sites, cfg, rng, false);
        ++out.counts[o];
    }

    OutcomeCounts ideal;
    ideal[out.idealOutcome] = cfg.shots;
    out.tvd = totalVariationDistance(out.counts, ideal);
    return out;
}

double
totalVariationDistance(const OutcomeCounts &a, const OutcomeCounts &b)
{
    int64_t ta = 0, tb = 0;
    for (const auto &[k, v] : a)
        ta += v;
    for (const auto &[k, v] : b)
        tb += v;
    if (ta == 0 || tb == 0)
        fatal("total variation distance of an empty histogram");

    double dist = 0.0;
    for (const auto &[k, v] : a) {
        double pa = static_cast<double>(v) / static_cast<double>(ta);
        auto it = b.find(k);
        double pb = it == b.end() ? 0.0
                                  : static_cast<double>(it->second) /
                                        static_cast<double>(tb);
        dist += std::abs(pa - pb);
    }
    for (const auto &[k, v] : b) {
        if (!a.count(k))
            dist += static_cast<double>(v) / static_cast<double>(tb);
    }
    return dist / 2.0;
}

} // namespace square
