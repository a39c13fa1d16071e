/**
 * @file
 * Seeded generation of every workload input: synthetic program shapes,
 * key draws (uniform and Zipf-skewed) and the open-loop send schedule.
 * Everything derives from the run's one --seed through independent
 * streams, so the same seed always yields the same inputs and the
 * daemons only ever see the generated requests.
 */

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workloads/synthetic.h"

namespace perfbench {

/** splitmix64: small, fast, and fully specified (portable streams). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }

    /** Uniform integer in [lo, hi]. */
    int
    range(int lo, int hi)
    {
        return lo + static_cast<int>(below(static_cast<uint64_t>(hi - lo + 1)));
    }

  private:
    uint64_t state_;
};

/** Named independent streams of one run seed. */
enum class Stream : uint64_t {
    SynthShapes = 1,
    OracleInputs = 2,
    WarmKeys = 3,
    MixedRanks = 4,
    MixedDraws = 5,
    Schedule = 6,
};

/** The seed of stream @p s of run seed @p seed. */
uint64_t streamSeed(uint64_t seed, Stream s);

/** Zipf(s) over ranks [0, n): P(rank k) proportional to 1/(k+1)^s. */
class Zipf
{
  public:
    Zipf(size_t n, double s);

    size_t draw(Rng &rng) const;

  private:
    std::vector<double> cdf_;
};

/**
 * Open-loop send times (seconds from the start) of a Poisson arrival
 * process at @p rate per second over @p seconds.
 */
std::vector<double> poissonSchedule(double rate, double seconds,
                                    uint64_t seed);

/** A seeded permutation of [0, n). */
std::vector<size_t> permutation(size_t n, uint64_t seed);

/**
 * @p count synthetic program shapes near the paper's small variants
 * (Jasmine-s/Elsa-s/Belle-s): 1-3 levels, 2-3 callees, short compute
 * blocks, each with its own generator seed.
 */
std::vector<square::SynthParams> synthShapes(uint64_t seed, int count);

} // namespace perfbench

#endif // PERFBENCH_GEN_H
