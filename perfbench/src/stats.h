/**
 * @file
 * Summary statistics for the benchmark: nearest-rank percentiles that
 * refuse to report a tail they cannot resolve, medians and geometric
 * means.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/stats.h"

namespace perfbench {

/** A percentile together with the sample it came from. */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0;
    /** Samples ranked strictly above the percentile's rank. */
    size_t beyond = 0;
    /** True when at least kMinBeyond samples lie beyond the rank. */
    bool supported = false;
};

/** A tail percentile is reported only with this many samples beyond. */
constexpr size_t kMinBeyond = 10;

/**
 * Nearest-rank percentile @p p (in [0, 100]) of @p values: the value of
 * rank ceil(p/100 * n) in ascending order.  The result is marked
 * supported only when at least kMinBeyond samples rank above it, so
 * p99 needs 1000 samples and the median needs 20.
 */
inline Percentile
percentile(std::vector<double> values, double p)
{
    Percentile out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    out.value = square::percentileNearestRank(values, p);
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::min(std::max<size_t>(rank, 1), values.size());
    out.beyond = values.size() - rank;
    out.supported = out.beyond >= kMinBeyond;
    return out;
}

/** Median (nearest-rank p50; no support rule: used for repeats). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return square::percentileNearestRank(values, 50.0);
}

/**
 * Geometric mean of positive values; 0 for an empty input or when any
 * value is not positive (a geomean over a zero is meaningless, and the
 * caller's metrics are chosen never to contain one).
 */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
