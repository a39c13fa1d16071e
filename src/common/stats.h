/**
 * @file
 * Small timing/statistics helpers shared by the service layer and the
 * throughput benches (one definition, so a
 * change to percentile semantics cannot silently diverge between the
 * library and the benches).
 */

#ifndef SQUARE_COMMON_STATS_H
#define SQUARE_COMMON_STATS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace square {

/** Milliseconds elapsed since @p t0. */
inline double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Nearest-rank percentile of a sorted sample (p in [0, 100]). */
inline double
percentileNearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    rank = std::min(std::max<size_t>(rank, 1), sorted.size());
    return sorted[rank - 1];
}

} // namespace square

#endif // SQUARE_COMMON_STATS_H
