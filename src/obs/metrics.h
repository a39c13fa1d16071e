/**
 * @file
 * The metrics half of the telemetry subsystem: sharded counters,
 * gauges, and log-linear histograms behind a per-component registry,
 * rendered as Prometheus text exposition.
 *
 * Design constraints, in order:
 *
 *  1. *Recording must be nearly free.*  The epoll warm path serves
 *     ~685k req/s on one core (~1.5 us/request), and the acceptance
 *     gate for this subsystem is <= 2% overhead at pipeline depth 8.
 *     Every record operation is therefore a handful of relaxed atomic
 *     RMWs on pre-resolved metric objects — name lookup happens once
 *     at component construction, never per request.  Counters shard
 *     across cache-line-padded cells indexed by a thread-local slot so
 *     concurrent event loops do not bounce one line.
 *
 *  2. *Histograms must merge exactly.*  Stats fan out across
 *     transports and (via the router) whole shard processes;
 *     percentiles must survive aggregation.  The histogram is
 *     log-linear — exact integer buckets below 64, then 32 sub-buckets
 *     per power of two (<= 1/32 relative error) — so merging is
 *     bucket-wise addition and a merged percentile equals the
 *     percentile of the merged population.
 *
 *  3. *Percentile semantics match common/stats.h.*  Quantiles use the
 *     same nearest-rank rule as percentileNearestRank (rank =
 *     ceil(p/100 * N), clamped to [1, N]) over bucket upper bounds, so
 *     for sample sets whose values all fall in the exact range the two
 *     agree bit-for-bit (tests/test_obs.cc pins this).
 *
 * Registries are deliberately *per component*, not process-global:
 * tests and benches construct several servers in one process and
 * assert exact counts, which process-global named metrics would
 * cross-contaminate.  Each registry renders under its own metric-name
 * prefix; aggregating across shard processes is the scraper's job.
 */

#ifndef SQUARE_OBS_METRICS_H
#define SQUARE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace square {
namespace obs {

/** Small dense per-thread slot id (not the TID) for counter sharding. */
int threadSlot();

/**
 * A monotonically increasing counter, sharded over cache-line-padded
 * cells to keep concurrent writers off each other's lines.  Reads sum
 * the cells; relaxed ordering throughout (metrics tolerate skew).
 */
class Counter
{
  public:
    void add(int64_t n = 1)
    {
        cells_[static_cast<unsigned>(threadSlot()) & (kCells - 1)]
            .v.fetch_add(n, std::memory_order_relaxed);
    }

    int64_t value() const
    {
        int64_t sum = 0;
        for (const Cell &c : cells_)
            sum += c.v.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    static constexpr unsigned kCells = 8;
    struct alignas(64) Cell {
        std::atomic<int64_t> v{0};
    };
    Cell cells_[kCells];
};

/**
 * A point-in-time value (queue depth, cached bytes, ...).  set() for
 * sampled values, add() for up/down tracking, noteMax() for a
 * monotonic high-water mark.
 */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }

    void noteMax(int64_t v)
    {
        int64_t cur = v_.load(std::memory_order_relaxed);
        while (v > cur && !v_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed))
            ;
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/** Mergeable point-in-time view of one histogram's population. */
struct HistogramSnapshot {
    std::vector<uint64_t> counts; ///< dense, indexed by bucket
    uint64_t total = 0;           ///< sum of counts
    int64_t sum = 0;              ///< sum of recorded values
    int64_t max = 0;              ///< largest recorded value

    /** Bucket-wise addition; merged percentiles stay exact. */
    void merge(const HistogramSnapshot &other);

    /**
     * Nearest-rank percentile over bucket upper bounds — the
     * histogram analogue of stats.h percentileNearestRank, and equal
     * to it whenever every sample landed in an exact bucket.
     */
    int64_t percentile(double p) const;

    double mean() const
    {
        return total == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(total);
    }
};

/**
 * A log-linear histogram of non-negative int64 values (negatives
 * clamp to 0): buckets 0..63 hold exact values 0..63, then each power
 * of two splits into 32 linear sub-buckets, bounding relative error
 * by 1/32.  Recording is two relaxed fetch_adds plus a CAS-free max
 * update in the common case.
 */
class Histogram
{
  public:
    /// 64 exact buckets + 32 sub-buckets per octave for 2^6..2^63.
    static constexpr int kBuckets = 64 + 32 * (63 - 6);

    /** The bucket a value lands in. */
    static int bucketIndex(int64_t v);

    /** Inclusive upper bound of a bucket (the reported quantile). */
    static int64_t bucketUpper(int index);

    void record(int64_t v);

    HistogramSnapshot snapshot() const;

    uint64_t count() const
    {
        uint64_t n = 0;
        for (const auto &b : buckets_)
            n += b.load(std::memory_order_relaxed);
        return n;
    }

    /** Sum of recorded values (allocation-free, for visitValues). */
    int64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<int64_t> sum_{0};
    std::atomic<int64_t> max_{0};
};

/**
 * A named bag of metrics owned by one component (a shard service, a
 * transport, an upstream pool).  counter()/gauge()/histogram() are
 * create-or-get and return references that stay valid for the
 * registry's lifetime — components resolve them once at construction
 * and record through the reference, so the registry mutex never sits
 * on a hot path.
 */
class Registry
{
  public:
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);

    /** Snapshot accessors for rendering (insertion order). */
    std::vector<std::pair<std::string, int64_t>> counterValues() const;
    std::vector<std::pair<std::string, int64_t>> gaugeValues() const;
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histogramValues() const;

    /**
     * Allocation-free walk over every metric's current value, for the
     * postmortem path (obs/flight_recorder.h).  @p kind is 'c'
     * (counter), 'g' (gauge), 'h' (histogram count), or 's'
     * (histogram sum).  With @p best_effort the registry lock is only
     * tried — a crash handler must never block on a mutex its own
     * thread may hold — and the walk then races create-or-get, which
     * is tolerable for a dying process: entries are never removed and
     * deque element addresses are stable.
     */
    void visitValues(bool best_effort,
                     void (*fn)(void *ctx, char kind,
                                const char *name, int64_t value),
                     void *ctx) const;

  private:
    mutable std::mutex mu_;
    // deques: stable element addresses across create-or-get growth.
    std::deque<std::pair<std::string, Counter>> counters_;
    std::deque<std::pair<std::string, Gauge>> gauges_;
    std::deque<std::pair<std::string, Histogram>> histograms_;
};

/**
 * Append Prometheus text exposition for @p registry.  Series are
 * named <prefix>_<metric>; counters gain a _total suffix; histograms
 * render as summaries (p50/p99/p99.9 quantile series plus _count and
 * _sum).
 */
void renderPrometheus(std::string &out, std::string_view prefix,
                      const Registry &registry);

/** Seconds since the process started (static-init anchor). */
int64_t uptimeSeconds();

/**
 * Append the build-identity series plus the uptime gauge:
 *
 *   square_build_info{version=..., compiler=..., sanitizer=...,
 *                     cpus=...} 1
 *   square_uptime_seconds <elapsed>
 *
 * so a scrape (and square_top's header) can tell *what* is running,
 * not just how it is doing.
 */
void renderBuildInfo(std::string &out);

} // namespace obs
} // namespace square

#endif // SQUARE_OBS_METRICS_H
