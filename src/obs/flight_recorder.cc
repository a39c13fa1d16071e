#include "obs/flight_recorder.h"

#include <algorithm>
#include <csignal>
#include <ctime>
#include <fcntl.h>
#include <unistd.h>

#include "obs/trace.h"

namespace square {
namespace obs {

int64_t
nowMonoUs()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000 +
           ts.tv_nsec / 1000;
}

const char *
compName(Comp comp)
{
    static const char *const kNames[] = {
        "service", "transport", "worker", "upstream",
        "router",  "fault",     "watchdog", "store",
    };
    static_assert(std::size(kNames) ==
                  static_cast<size_t>(Comp::kCount));
    const auto i = static_cast<size_t>(comp);
    return i < std::size(kNames) ? kNames[i] : "unknown";
}

const char *
evName(Ev ev)
{
    static const char *const kNames[] = {
        "request",
        "admit",
        "shed",
        "publish",
        "evict",
        "deadline_expired",
        "accept",
        "disconnect",
        "backpressure",
        "flush",
        "dequeue",
        "death",
        "respawn",
        "shard_down",
        "redial",
        "failover",
        "forward",
        "fault_compile_delay",
        "fault_worker_death",
        "fault_write_fail",
        "fault_read_stall",
        "fault_connect_fail",
        "fault_reset",
        "stall",
        "dump",
        "store_replay",
        "store_corrupt",
        "store_append",
        "store_drop",
    };
    static_assert(std::size(kNames) == static_cast<size_t>(Ev::kCount));
    const auto i = static_cast<size_t>(ev);
    return i < std::size(kNames) ? kNames[i] : "unknown";
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

FlightRecorder &
FlightRecorder::instance()
{
    // Immortal (never destroyed): threads that exit during static
    // teardown still run their TlsRingHandle destructors, which must
    // find the slot table alive.  The rings are leaked by design
    // anyway; the table joins them.
    static FlightRecorder *recorder = new FlightRecorder();
    return *recorder;
}

/**
 * Thread-exit hook: returns the slot to the free list so the ring
 * table is bounded by peak concurrency.  The Ring itself is never
 * freed — its events stay dumpable after the thread is gone, and the
 * next new thread appends to it from wherever head stands.
 */
struct TlsRingHandle {
    FlightRecorder::Ring *ring = nullptr;
    int slot = -1;
    ~TlsRingHandle()
    {
        if (slot >= 0)
            FlightRecorder::instance().releaseSlot(slot);
    }
};

FlightRecorder::Ring *
FlightRecorder::localRing()
{
    thread_local TlsRingHandle tls;
    if (tls.ring != nullptr)
        return tls.ring;
    if (tls.slot == -2)
        return nullptr; // table was full when this thread first wrote
    std::lock_guard<std::mutex> lock(slotMu_);
    int slot = -1;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else if (ringCount_.load(std::memory_order_relaxed) <
               kMaxRings) {
        slot = ringCount_.load(std::memory_order_relaxed);
    }
    if (slot < 0) {
        tls.slot = -2;
        return nullptr;
    }
    Ring *ring = rings_[slot].load(std::memory_order_acquire);
    if (ring == nullptr) {
        ring = new Ring(); // leaked by design: dumps outlive threads
        rings_[slot].store(ring, std::memory_order_release);
        ringCount_.store(slot + 1, std::memory_order_release);
    }
    tls.ring = ring;
    tls.slot = slot;
    return ring;
}

void
FlightRecorder::releaseSlot(int slot)
{
    std::lock_guard<std::mutex> lock(slotMu_);
    freeSlots_.push_back(slot);
}

void
FlightRecorder::record(Comp comp, Ev code, uint64_t a0, uint64_t a1,
                       uint64_t trace)
{
    Ring *ring = localRing();
    if (ring == nullptr)
        return;
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    Event &ev = ring->ev[head & (kRingEvents - 1)];
    ev.tsUs = nowMonoUs();
    ev.trace = trace;
    ev.a0 = a0;
    ev.a1 = a1;
    ev.comp = static_cast<uint16_t>(comp);
    ev.code = static_cast<uint16_t>(code);
    ev.tid = static_cast<uint32_t>(threadSlot());
    // Publish after the slot write: snapshot readers acquire head and
    // only trust events strictly below it.
    ring->head.store(head + 1, std::memory_order_release);
}

std::vector<Event>
FlightRecorder::snapshot() const
{
    std::vector<Event> out;
    const int slots = ringSlots();
    for (int i = 0; i < slots; ++i) {
        const Ring *ring = ringAt(i);
        if (ring == nullptr)
            continue;
        const uint64_t head =
            ring->head.load(std::memory_order_acquire);
        const uint64_t n = std::min(head, kRingEvents);
        const uint64_t lo = head - n;
        const size_t base = out.size();
        for (uint64_t seq = lo; seq < head; ++seq)
            out.push_back(ring->ev[seq & (kRingEvents - 1)]);
        // The owner may have lapped us mid-copy: re-read head and
        // discard every sequence it has since overwritten.
        const uint64_t head2 =
            ring->head.load(std::memory_order_acquire);
        if (head2 > head) {
            const uint64_t new_lo =
                head2 > kRingEvents ? head2 - kRingEvents : 0;
            if (new_lo > lo)
                out.erase(out.begin() + static_cast<int64_t>(base),
                          out.begin() +
                              static_cast<int64_t>(
                                  base + std::min(new_lo - lo, n)));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Event &a, const Event &b) {
                         return a.tsUs < b.tsUs;
                     });
    return out;
}

uint64_t
FlightRecorder::recorded() const
{
    uint64_t total = 0;
    const int slots = ringSlots();
    for (int i = 0; i < slots; ++i) {
        const Ring *ring = ringAt(i);
        if (ring != nullptr)
            total += ring->head.load(std::memory_order_relaxed);
    }
    return total;
}

uint64_t
FlightRecorder::dropped() const
{
    uint64_t lost = 0;
    const int slots = ringSlots();
    for (int i = 0; i < slots; ++i) {
        const Ring *ring = ringAt(i);
        if (ring == nullptr)
            continue;
        const uint64_t head =
            ring->head.load(std::memory_order_relaxed);
        if (head > kRingEvents)
            lost += head - kRingEvents;
    }
    return lost;
}

// ---------------------------------------------------------------------
// Postmortem
// ---------------------------------------------------------------------

namespace {

/**
 * Async-signal-safe NDJSON appender: a fixed stack buffer flushed
 * with write() at line boundaries.  No allocation, no locale, no
 * stdio — usable from inside the crash handler.
 */
class PmWriter
{
  public:
    explicit PmWriter(int fd) : fd_(fd) {}
    ~PmWriter() { flush(); }

    void str(const char *s)
    {
        while (*s != '\0')
            ch(*s++);
    }

    void ch(char c)
    {
        if (len_ == sizeof buf_)
            flush();
        buf_[len_++] = c;
    }

    void u64(uint64_t v)
    {
        char tmp[20];
        int n = 0;
        do {
            tmp[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n > 0)
            ch(tmp[--n]);
    }

    void i64(int64_t v)
    {
        if (v < 0) {
            ch('-');
            u64(static_cast<uint64_t>(-(v + 1)) + 1);
        } else {
            u64(static_cast<uint64_t>(v));
        }
    }

    void hex16(uint64_t v)
    {
        for (int shift = 60; shift >= 0; shift -= 4)
            ch("0123456789abcdef"[(v >> shift) & 0xf]);
    }

    /** End the line; flush early so lines stay write()-atomic. */
    void endLine()
    {
        ch('\n');
        if (len_ >= sizeof buf_ - 256)
            flush();
    }

    void flush()
    {
        size_t off = 0;
        while (off < len_) {
            const ssize_t n =
                ::write(fd_, buf_ + off, len_ - off);
            if (n <= 0)
                break; // postmortem writes are best-effort
            off += static_cast<size_t>(n);
        }
        len_ = 0;
    }

  private:
    int fd_;
    size_t len_ = 0;
    char buf_[4096];
};

const char *
signalName(int sig)
{
    switch (sig) {
    case SIGSEGV:
        return "SIGSEGV";
    case SIGABRT:
        return "SIGABRT";
    case SIGBUS:
        return "SIGBUS";
    default:
        return "SIGNAL";
    }
}

void
pmCommon(PmWriter &w, const char *kind)
{
    w.str("{\"pm\": \"");
    w.str(kind);
    w.str("\", \"pid\": ");
    w.u64(static_cast<uint64_t>(::getpid()));
}

struct MetricCtx {
    PmWriter *w;
    const char *prefix;
};

void
writeMetric(void *ctx, char kind, const char *name, int64_t value)
{
    auto *mc = static_cast<MetricCtx *>(ctx);
    PmWriter &w = *mc->w;
    pmCommon(w, "metric");
    w.str(", \"reg\": \"");
    w.str(mc->prefix);
    w.str("\", \"name\": \"");
    w.str(name);
    if (kind == 'h')
        w.str("_count");
    else if (kind == 's')
        w.str("_sum");
    w.str("\", \"kind\": \"");
    w.str(kind == 'c' ? "counter"
                      : kind == 'g' ? "gauge" : "histogram");
    w.str("\", \"value\": ");
    w.i64(value);
    w.ch('}');
    w.endLine();
}

} // namespace

Postmortem &
Postmortem::instance()
{
    // Immortal, like the recorder: a crash during static teardown
    // must still find a live sink (the fd closes at process exit).
    static Postmortem *pm = new Postmortem();
    return *pm;
}

bool
Postmortem::configure(const std::string &path, std::string &error)
{
    std::lock_guard<std::mutex> lock(mu_);
    const int old = fd_.load(std::memory_order_acquire);
    if (path.empty()) {
        fd_.store(-1, std::memory_order_release);
        path_.clear();
        if (old >= 0)
            ::close(old);
        return true;
    }
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        error = "cannot open postmortem file '" + path + "'";
        return false;
    }
    fd_.store(fd, std::memory_order_release);
    path_ = path;
    if (old >= 0)
        ::close(old);
    return true;
}

std::string
Postmortem::path() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return path_;
}

void
Postmortem::registerRegistry(const char *prefix, const Registry *reg)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (RegSlot &slot : regs_) {
        if (slot.reg.load(std::memory_order_acquire) != nullptr)
            continue;
        size_t n = 0;
        while (prefix[n] != '\0' && n < sizeof slot.prefix - 1) {
            slot.prefix[n] = prefix[n];
            ++n;
        }
        slot.prefix[n] = '\0';
        slot.reg.store(reg, std::memory_order_release);
        return;
    }
    // Table full: the dump just omits this registry's metrics.
}

void
Postmortem::unregisterRegistry(const Registry *reg)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (RegSlot &slot : regs_)
        if (slot.reg.load(std::memory_order_acquire) == reg)
            slot.reg.store(nullptr, std::memory_order_release);
}

int64_t
Postmortem::dump(const char *reason, int sig, bool from_signal)
{
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0)
        return -1;
    // Normal dumps (operator command, watchdog) serialize against
    // each other and against configure(); the crash path must not
    // block on a mutex the dying thread may already hold.
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    if (!from_signal)
        lock.lock();

    PmWriter w(fd);
    pmCommon(w, "begin");
    w.str(", \"reason\": \"");
    w.str(reason);
    w.ch('"');
    if (sig != 0) {
        w.str(", \"signal\": ");
        w.i64(sig);
        w.str(", \"signal_name\": \"");
        w.str(signalName(sig));
        w.ch('"');
    }
    w.str(", \"wall_us\": ");
    w.i64(nowWallMicros());
    w.str(", \"mono_us\": ");
    w.i64(nowMonoUs());
    w.ch('}');
    w.endLine();

    // The rings, per slot in sequence order — square_blackbox merges
    // and time-orders on display.  Reading races the owners; events
    // below an acquired head are complete (release/acquire on head),
    // and a lap during the copy can only yield stale-but-wellformed
    // events, which the timestamp ordering downstream tolerates.
    FlightRecorder &fr = FlightRecorder::instance();
    int64_t events = 0;
    const int slots = fr.ringSlots();
    for (int i = 0; i < slots; ++i) {
        const FlightRecorder::Ring *ring = fr.ringAt(i);
        if (ring == nullptr)
            continue;
        const uint64_t head =
            ring->head.load(std::memory_order_acquire);
        const uint64_t n =
            std::min(head, FlightRecorder::kRingEvents);
        for (uint64_t seq = head - n; seq < head; ++seq) {
            const Event &ev =
                ring->ev[seq & (FlightRecorder::kRingEvents - 1)];
            pmCommon(w, "ev");
            w.str(", \"ts_us\": ");
            w.i64(ev.tsUs);
            w.str(", \"comp\": \"");
            w.str(compName(static_cast<Comp>(ev.comp)));
            w.str("\", \"ev\": \"");
            w.str(evName(static_cast<Ev>(ev.code)));
            w.str("\", \"tid\": ");
            w.u64(ev.tid);
            w.str(", \"a0\": ");
            w.u64(ev.a0);
            w.str(", \"a1\": ");
            w.u64(ev.a1);
            if (ev.trace != 0) {
                w.str(", \"trace\": \"");
                w.hex16(ev.trace);
                w.ch('"');
            }
            w.ch('}');
            w.endLine();
            ++events;
        }
    }

    // The final metrics snapshot.  From a signal the registry locks
    // are only tried (a crash inside a registry must not deadlock the
    // handler); the walk is then best-effort by contract.
    for (const RegSlot &slot : regs_) {
        const Registry *reg =
            slot.reg.load(std::memory_order_acquire);
        if (reg == nullptr)
            continue;
        MetricCtx ctx{&w, slot.prefix};
        reg->visitValues(from_signal, writeMetric, &ctx);
    }

    pmCommon(w, "end");
    w.str(", \"reason\": \"");
    w.str(reason);
    w.str("\", \"events\": ");
    w.i64(events);
    w.str(", \"dropped\": ");
    w.u64(fr.dropped());
    w.ch('}');
    w.endLine();
    w.flush();
    return events;
}

namespace {

void
crashHandler(int sig)
{
    // First thing, restore the default disposition: a second fault
    // of the same signal (including one raised by the dump itself)
    // must kill the process, not recurse.
    std::signal(sig, SIG_DFL);
    static std::atomic<int> crashing{0};
    if (crashing.fetch_add(1, std::memory_order_acq_rel) == 0)
        Postmortem::instance().dump("crash", sig,
                                    /*from_signal=*/true);
    ::raise(sig);
}

} // namespace

void
Postmortem::installCrashHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = crashHandler;
    ::sigemptyset(&sa.sa_mask);
    // No SA_RESETHAND: the handler resets the disposition itself so
    // the reset also covers faults raised *inside* the dump.
    sa.sa_flags = 0;
    ::sigaction(SIGSEGV, &sa, nullptr);
    ::sigaction(SIGABRT, &sa, nullptr);
    ::sigaction(SIGBUS, &sa, nullptr);
}

} // namespace obs
} // namespace square
