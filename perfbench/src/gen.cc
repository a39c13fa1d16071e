#include "gen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t
streamSeed(uint64_t seed, Stream s)
{
    Rng mix(seed ^ (static_cast<uint64_t>(s) * 0xD1B54A32D192ED03ull));
    return mix.next();
}

Zipf::Zipf(size_t n, double s) : cdf_(n)
{
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = sum;
    }
    for (double &c : cdf_)
        c /= sum;
}

size_t
Zipf::draw(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return static_cast<size_t>(it - cdf_.begin());
}

std::vector<double>
poissonSchedule(double rate, double seconds, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> times;
    times.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
    double t = 0.0;
    while (true) {
        // Inverse-CDF exponential gap; 1 - u keeps the log finite.
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        times.push_back(t);
    }
    return times;
}

std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = i;
    Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

std::vector<square::SynthParams>
synthShapes(uint64_t seed, int count)
{
    Rng rng(seed);
    std::vector<square::SynthParams> shapes;
    for (int i = 0; i < count; ++i) {
        square::SynthParams p;
        p.levels = rng.range(1, 3);
        p.callees = rng.range(2, 3);
        p.dataParams = rng.range(3, 4);
        p.outParams = 1;
        p.ancilla = rng.range(2, 4);
        p.gates = rng.range(8, 20);
        p.seed = rng.next();
        shapes.push_back(p);
    }
    return shapes;
}

} // namespace perfbench
