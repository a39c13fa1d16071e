#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace square {
namespace obs {

int
threadSlot()
{
    static std::atomic<int> next{0};
    thread_local const int slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

int
Histogram::bucketIndex(int64_t v)
{
    if (v < 64)
        return v < 0 ? 0 : static_cast<int>(v);
    // v in [2^p, 2^(p+1)): 32 linear sub-buckets of width 2^(p-5).
    const int p = std::bit_width(static_cast<uint64_t>(v)) - 1;
    const int sub = static_cast<int>((static_cast<uint64_t>(v) >>
                                      (p - 5)) -
                                     32);
    return 64 + (p - 6) * 32 + sub;
}

int64_t
Histogram::bucketUpper(int index)
{
    if (index < 64)
        return index;
    const int p = (index - 64) / 32 + 6;
    const int sub = (index - 64) % 32;
    // Unsigned: the last bucket's bound, 2^63 - 1, passes through
    // 2^63, which int64_t cannot hold.
    return static_cast<int64_t>(
        ((static_cast<uint64_t>(sub) + 33) << (p - 5)) - 1);
}

void
Histogram::record(int64_t v)
{
    if (v < 0)
        v = 0;
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed))
        ;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.counts.resize(kBuckets);
    for (int i = 0; i < kBuckets; ++i) {
        s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
        s.total += s.counts[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (counts.size() < other.counts.size())
        counts.resize(other.counts.size());
    for (size_t i = 0; i < other.counts.size(); ++i) {
        counts[i] += other.counts[i];
        total += other.counts[i];
    }
    sum += other.sum;
    max = std::max(max, other.max);
}

int64_t
HistogramSnapshot::percentile(double p) const
{
    if (total == 0)
        return 0;
    // Nearest rank, exactly as stats.h percentileNearestRank: rank =
    // ceil(p/100 * N) clamped to [1, N], then the rank'th smallest.
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    rank = std::min(std::max<uint64_t>(rank, 1), total);
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        cum += counts[i];
        if (cum >= rank)
            return Histogram::bucketUpper(static_cast<int>(i));
    }
    return max;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &entry : counters_)
        if (entry.first == name)
            return entry.second;
    counters_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple());
    return counters_.back().second;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &entry : gauges_)
        if (entry.first == name)
            return entry.second;
    gauges_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name),
                         std::forward_as_tuple());
    return gauges_.back().second;
}

Histogram &
Registry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &entry : histograms_)
        if (entry.first == name)
            return entry.second;
    histograms_.emplace_back(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple());
    return histograms_.back().second;
}

std::vector<std::pair<std::string, int64_t>>
Registry::counterValues() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, int64_t>> out;
    out.reserve(counters_.size());
    for (const auto &entry : counters_)
        out.emplace_back(entry.first, entry.second.value());
    return out;
}

std::vector<std::pair<std::string, int64_t>>
Registry::gaugeValues() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, int64_t>> out;
    out.reserve(gauges_.size());
    for (const auto &entry : gauges_)
        out.emplace_back(entry.first, entry.second.value());
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::histogramValues() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histograms_.size());
    for (const auto &entry : histograms_)
        out.emplace_back(entry.first, entry.second.snapshot());
    return out;
}

void
Registry::visitValues(bool best_effort,
                      void (*fn)(void *ctx, char kind,
                                 const char *name, int64_t value),
                      void *ctx) const
{
    const bool locked = best_effort ? mu_.try_lock()
                                    : (mu_.lock(), true);
    for (const auto &entry : counters_)
        fn(ctx, 'c', entry.first.c_str(), entry.second.value());
    for (const auto &entry : gauges_)
        fn(ctx, 'g', entry.first.c_str(), entry.second.value());
    for (const auto &entry : histograms_) {
        // Count and sum only: percentiles need an allocated snapshot,
        // which the crash path cannot afford.
        fn(ctx, 'h', entry.first.c_str(),
           static_cast<int64_t>(entry.second.count()));
        fn(ctx, 's', entry.first.c_str(), entry.second.sum());
    }
    if (locked)
        mu_.unlock();
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

namespace {

void
appendSeries(std::string &out, std::string_view prefix,
             std::string_view name, std::string_view suffix,
             std::string_view label, long long value)
{
    out += prefix;
    out += '_';
    out += name;
    out += suffix;
    if (!label.empty()) {
        out += '{';
        out += label;
        out += '}';
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, " %lld\n", value);
    out += buf;
}

void
appendType(std::string &out, std::string_view prefix,
           std::string_view name, std::string_view suffix,
           std::string_view type)
{
    out += "# TYPE ";
    out += prefix;
    out += '_';
    out += name;
    out += suffix;
    out += ' ';
    out += type;
    out += '\n';
}

} // namespace

void
renderPrometheus(std::string &out, std::string_view prefix,
                 const Registry &registry)
{
    for (const auto &[name, value] : registry.counterValues()) {
        appendType(out, prefix, name, "_total", "counter");
        appendSeries(out, prefix, name, "_total", {}, value);
    }
    for (const auto &[name, value] : registry.gaugeValues()) {
        appendType(out, prefix, name, "", "gauge");
        appendSeries(out, prefix, name, "", {}, value);
    }
    for (const auto &[name, snap] : registry.histogramValues()) {
        appendType(out, prefix, name, "", "summary");
        static constexpr struct {
            const char *label;
            double p;
        } kQuantiles[] = {{"quantile=\"0.5\"", 50.0},
                          {"quantile=\"0.99\"", 99.0},
                          {"quantile=\"0.999\"", 99.9}};
        for (const auto &q : kQuantiles)
            appendSeries(out, prefix, name, "", q.label,
                         static_cast<long long>(snap.percentile(q.p)));
        appendSeries(out, prefix, name, "_count", {},
                     static_cast<long long>(snap.total));
        appendSeries(out, prefix, name, "_sum", {},
                     static_cast<long long>(snap.sum));
    }
}

// ---------------------------------------------------------------------
// Build identity + uptime
// ---------------------------------------------------------------------

namespace {

/** Anchored at static init, close enough to process start. */
const std::chrono::steady_clock::time_point g_processStart =
    std::chrono::steady_clock::now();

const char *
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "asan";
#elif defined(__SANITIZE_THREAD__)
    return "tsan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return "asan";
#elif __has_feature(thread_sanitizer)
    return "tsan";
#elif __has_feature(memory_sanitizer)
    return "msan";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

} // namespace

int64_t
uptimeSeconds()
{
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now() - g_processStart)
        .count();
}

void
renderBuildInfo(std::string &out)
{
#ifdef SQUARE_VERSION
    const char *version = SQUARE_VERSION;
#else
    const char *version = "dev";
#endif
#ifdef __VERSION__
    const char *compiler = __VERSION__;
#else
    const char *compiler = "unknown";
#endif
    out += "# TYPE square_build_info gauge\n";
    out += "square_build_info{version=\"";
    out += version;
    out += "\",compiler=\"";
    out += compiler;
    out += "\",sanitizer=\"";
    out += sanitizerName();
    out += "\",cpus=\"";
    out += std::to_string(std::thread::hardware_concurrency());
    out += "\"} 1\n";
    out += "# TYPE square_uptime_seconds gauge\n";
    out += "square_uptime_seconds ";
    out += std::to_string(uptimeSeconds());
    out += '\n';
}

} // namespace obs
} // namespace square
