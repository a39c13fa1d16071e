/**
 * @file
 * In-memory spans for the traced run.
 *
 * The benchmark records a span around each call it makes into a layer
 * (name, start, end, parent, request id).  Spans stay in memory while
 * the run measures and are written out as NDJSON when it ends.  A
 * layer's self time is its span's duration minus the part of that
 * interval its child spans cover.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    /** Static string: span names are literals at the call sites. */
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the parent span in the same log, or -1. */
    int64_t parent = -1;
    uint64_t request = 0;
};

/** One thread's spans.  Disabled logs record nothing. */
class SpanLog
{
  public:
    static constexpr int64_t kNone = -1;

    explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

    /** Open a span now; returns its index (kNone when disabled). */
    int64_t
    begin(const char *name, uint64_t request, int64_t parent = kNone)
    {
        if (!enabled_)
            return kNone;
        spans_.push_back({name, nowNs(), 0, parent, request});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    /** Close span @p index now. */
    void
    end(int64_t index)
    {
        if (index != kNone)
            spans_[static_cast<size_t>(index)].endNs = nowNs();
    }

    /** Record a span whose interval was measured by the caller. */
    int64_t
    add(const char *name, int64_t start_ns, int64_t end_ns,
        uint64_t request, int64_t parent = kNone)
    {
        if (!enabled_)
            return kNone;
        spans_.push_back({name, start_ns, end_ns, parent, request});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    /** Move @p other's spans in after ours, re-basing parent indices. */
    void append(SpanLog &&other);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
};

/** RAII span over a scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint64_t request,
               int64_t parent = SpanLog::kNone)
        : log_(log), index_(log.begin(name, request, parent))
    {}
    ~ScopedSpan() { log_.end(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t index() const { return index_; }

  private:
    SpanLog &log_;
    int64_t index_;
};

/** Self time of every span, in nanoseconds, indexed like @p spans. */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Write one NDJSON line per span; false when the file cannot open. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
