#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include <fcntl.h>
#include <unistd.h>

#include "common/flags.h"

namespace square {
namespace obs {

int64_t
nowWallMicros()
{
    timespec ts{};
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000 +
           ts.tv_nsec / 1000;
}

int64_t
microsSince(const SpanClock &start)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start.steady)
        .count();
}

void
Trace::addSpan(std::string_view name, int64_t start_us,
               int64_t dur_us)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::string(name), start_us, dur_us});
}

std::vector<Span>
Trace::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::string
Trace::formatId(uint64_t id)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(id));
    return std::string(buf, 16);
}

bool
Trace::parseId(std::string_view text, uint64_t &id)
{
    return text.size() <= 16 && parseUintHex(text, id);
}

uint64_t
genTraceId()
{
    // splitmix64 over a process-unique sequence seeded with the pid
    // and the wall clock: ids are unique within a process and collide
    // across fabric processes only with ~2^-64 probability.
    static std::atomic<uint64_t> seq{
        (static_cast<uint64_t>(::getpid()) << 32) ^
        static_cast<uint64_t>(nowWallMicros())};
    uint64_t z = seq.fetch_add(0x9e3779b97f4a7c15ull,
                               std::memory_order_relaxed) +
                 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    return z != 0 ? z : 1; // 0 is "no trace" in the protocol
}

TraceLog::TraceLog()
{
    const char *path = std::getenv("SQUARE_TRACE_LOG");
    if (path != nullptr && path[0] != '\0') {
        std::string error;
        configure(path, error); // best-effort: env misconfig ≠ fatal
    }
}

TraceLog::~TraceLog()
{
    const int fd = fd_.exchange(-1);
    if (fd >= 0)
        ::close(fd);
}

TraceLog &
TraceLog::instance()
{
    static TraceLog log;
    return log;
}

bool
TraceLog::configure(const std::string &path, std::string &error)
{
    std::lock_guard<std::mutex> lock(mu_);
    int fd = -1;
    if (!path.empty()) {
        fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd < 0) {
            error = "cannot open trace log " + path;
            return false;
        }
    }
    const int old = fd_.exchange(fd, std::memory_order_release);
    if (old >= 0)
        ::close(old);
    return true;
}

namespace {

void
appendSpanLine(std::string &out, std::string_view trace_id,
               std::string_view comp, const Span &span)
{
    out += "{\"trace\": \"";
    out += trace_id;
    out += "\", \"comp\": \"";
    out += comp;
    out += "\", \"span\": \"";
    out += span.name;
    out += "\"";
    char buf[64];
    std::snprintf(buf, sizeof buf,
                  ", \"start_us\": %lld, \"dur_us\": %lld}\n",
                  static_cast<long long>(span.startUs),
                  static_cast<long long>(span.durUs));
    out += buf;
}

} // namespace

void
TraceLog::emit(const Trace &trace, std::string_view comp)
{
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0)
        return;
    const std::string id = Trace::formatId(trace.id());
    std::string buf;
    for (const Span &span : trace.spans())
        appendSpanLine(buf, id, comp, span);
    if (buf.empty())
        return;
    // One write per trace: O_APPEND makes the write atomic against
    // other processes appending the same file, so cross-process logs
    // interleave at trace granularity, never mid-line.
    std::lock_guard<std::mutex> lock(mu_);
    ssize_t unused = ::write(fd, buf.data(), buf.size());
    (void)unused;
}

void
TraceLog::emitSpan(uint64_t trace_id, std::string_view comp,
                   std::string_view span, int64_t start_us,
                   int64_t dur_us)
{
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0)
        return;
    std::string buf;
    appendSpanLine(buf, Trace::formatId(trace_id), comp,
                   Span{std::string(span), start_us, dur_us});
    std::lock_guard<std::mutex> lock(mu_);
    ssize_t unused = ::write(fd, buf.data(), buf.size());
    (void)unused;
}

} // namespace obs
} // namespace square
