/**
 * @file
 * Per-request distributed tracing for the serving fabric.
 *
 * A trace is born where a request enters the system (square_client
 * with --trace-sample, or a server-side sampler), identified by a
 * 64-bit id carried as a "trace_id" field in the NDJSON protocol.
 * The router's forwarded framing copies every request field, so the
 * id crosses the process boundary to the owning shard for free; each
 * tier records its own spans (client: request; router: resolve,
 * forward; shard: admission, queue, resolve, analysis,
 * allocate_route_schedule, serialize, write) against the shared id.
 *
 * Span timestamps are wall-clock microseconds (CLOCK_REALTIME) so
 * spans recorded by different processes on one host line up on a
 * common axis; durations are measured on the steady clock so a wall
 * clock step cannot corrupt them.  Spans are emitted as NDJSON lines
 *
 *   {"trace": "<16 hex>", "comp": "shard", "span": "analysis",
 *    "start_us": 1723111623000042, "dur_us": 1873}
 *
 * appended to the process's trace log (SQUARE_TRACE_LOG or a
 * --trace-log flag) with a single O_APPEND write per trace, so every
 * process in a fabric can share one log file and tools/square_trace
 * can reassemble cross-process traces by id.
 *
 * Sampling is head-based: a deterministic 1-in-N Sampler at the entry
 * point decides for the whole request tree (downstream tiers trace
 * whenever the id is present).  A server may additionally run with
 * --trace-slow-ms=T: every request is then staged into an unsampled
 * trace that is emitted only if it took longer than T — slow outliers
 * are captured even at tiny sample rates.
 */

#ifndef SQUARE_OBS_TRACE_H
#define SQUARE_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace square {
namespace obs {

/** Wall-clock microseconds since the Unix epoch (CLOCK_REALTIME). */
int64_t nowWallMicros();

/**
 * A span's two clocks, read together at its start: the wall stamp is
 * what gets emitted, the steady stamp is what durations are computed
 * from.
 */
struct SpanClock {
    int64_t wallUs = 0;
    std::chrono::steady_clock::time_point steady;

    static SpanClock now()
    {
        return {nowWallMicros(), std::chrono::steady_clock::now()};
    }
};

/** Microseconds elapsed since `start` on the steady clock. */
int64_t microsSince(const SpanClock &start);

/**
 * The hook surface the core compiler sees: narrow on purpose, so
 * src/core/ records phase spans without depending on trace emission,
 * sampling, or the protocol.
 */
class PhaseSink
{
  public:
    virtual ~PhaseSink() = default;
    virtual void phaseSpan(std::string_view name, int64_t start_us,
                           int64_t dur_us) = 0;
};

/** One recorded span (name interned as a string: few per request). */
struct Span {
    std::string name;
    int64_t startUs = 0;
    int64_t durUs = 0;
};

/**
 * One request's span collection.  Thread-safe appends: a request's
 * spans are recorded from the event thread (admission, serialize,
 * write) and the worker pool (queue, analysis, phases) concurrently.
 */
class Trace : public PhaseSink
{
  public:
    Trace(uint64_t id, bool sampled) : id_(id), sampled_(sampled) {}

    uint64_t id() const { return id_; }

    /** Head-sampled traces always emit; unsampled ones only if slow. */
    bool sampled() const { return sampled_; }

    void addSpan(std::string_view name, int64_t start_us,
                 int64_t dur_us);

    void phaseSpan(std::string_view name, int64_t start_us,
                   int64_t dur_us) override
    {
        addSpan(name, start_us, dur_us);
    }

    std::vector<Span> spans() const;

    /** The canonical 16-lowercase-hex wire form of a trace id. */
    static std::string formatId(uint64_t id);

    /**
     * Parse the wire form; false on anything but 1-16 hex digits (of
     * either case).
     */
    static bool parseId(std::string_view text, uint64_t &id);

  private:
    const uint64_t id_;
    const bool sampled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Deterministic head-based 1-in-N sampler (0 = never sample). */
class Sampler
{
  public:
    explicit Sampler(uint64_t every_n = 0) : everyN_(every_n) {}

    bool sample()
    {
        if (everyN_ == 0)
            return false;
        return count_.fetch_add(1, std::memory_order_relaxed) % everyN_ == 0;
    }

  private:
    const uint64_t everyN_;
    std::atomic<uint64_t> count_{0};
};

/** A fresh trace id: process-unique counter mixed with pid + clock. */
uint64_t genTraceId();

/**
 * The process's trace sink: an append-only NDJSON span log shared by
 * every component in the process (and, via O_APPEND, safely shared
 * with other processes writing the same path).  Configured once per
 * process — from the SQUARE_TRACE_LOG environment variable on first
 * use, or explicitly via configure() (tools' --trace-log flag, tests
 * redirecting to a temp file).
 */
class TraceLog
{
  public:
    static TraceLog &instance();

    /** (Re)open `path` for appending; "" disables emission. */
    bool configure(const std::string &path, std::string &error);

    bool enabled() const
    {
        return fd_.load(std::memory_order_acquire) >= 0;
    }

    /** Write all of `trace`'s spans, tagged `comp`, in one write(). */
    void emit(const Trace &trace, std::string_view comp);

    /** Emit a single span line without building a Trace. */
    void emitSpan(uint64_t trace_id, std::string_view comp,
                  std::string_view span, int64_t start_us,
                  int64_t dur_us);

  private:
    TraceLog();
    ~TraceLog();

    std::mutex mu_; ///< serializes configure vs. emit buffer writes
    std::atomic<int> fd_{-1};
};

} // namespace obs
} // namespace square

#endif // SQUARE_OBS_TRACE_H
