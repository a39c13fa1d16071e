/**
 * @file
 * The black-box flight recorder: failure-time observability for the
 * serving fabric, complementing metrics.h (steady-state counters) and
 * trace.h (per-request spans).
 *
 * Every tier records compact structured events — a monotonic
 * timestamp, a component, an event code, two u64 arguments, and the
 * request's trace id when one is present — into per-thread lock-free
 * ring buffers.  The rings are small (kRingEvents per thread), cheap
 * to write (one clock read plus plain stores and a release bump of
 * the ring head), and never synchronize writers with each other.
 * Recording is always on, so its cost on the serving paths is part of
 * what the repository benchmark's serve_warm and serve_mixed
 * workloads measure (perfbench/README.md).
 *
 * Two consumers read the rings:
 *
 *  - snapshot() merges every ring into one time-ordered vector (for
 *    tests and in-process inspection).  It is best-effort under
 *    concurrent wrap: events overwritten while the copy ran are
 *    detected by re-reading the head and dropped.
 *
 *  - Postmortem::dump() writes the rings (plus a final metrics
 *    snapshot from every registered Registry) as NDJSON lines to an
 *    O_APPEND file.  The writer is async-signal-safe — fixed stack
 *    buffer, no allocation, no locks on the crash path, only write()
 *    — so the installed SIGSEGV/SIGABRT/SIGBUS handler can call it
 *    from inside the dying signal frame.  Multiple processes may
 *    share one postmortem file: every line carries the pid.
 *
 * Ring ownership: a thread adopts a ring slot on first record and
 * releases the slot (not the ring) at thread exit; the ring's events
 * survive for later dumps — a crash shortly after a worker death
 * still shows what the dead worker was doing — and the slot is
 * recycled by the next new thread, so the ring table is bounded by
 * the peak concurrent thread count, not the process-lifetime total.
 */

#ifndef SQUARE_OBS_FLIGHT_RECORDER_H
#define SQUARE_OBS_FLIGHT_RECORDER_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace square {
namespace obs {

/** Monotonic microseconds (CLOCK_MONOTONIC); async-signal-safe. */
int64_t nowMonoUs();

/** The tier a flight-recorder event was recorded by. */
enum class Comp : uint16_t {
    Service,   ///< shard service (cache, admission, publish)
    Transport, ///< the epoll transport
    Worker,    ///< WorkerPool (async cold compiles)
    Upstream,  ///< the router's UpstreamPool (shard health)
    Router,    ///< router request forwarding
    Fault,     ///< fault injection (every injected fault records)
    Watchdog,  ///< stall detection
    Store,     ///< persistent artifact store (replay + appender)
    kCount
};

/** Flight-recorder event codes (catalogued in docs/OBSERVABILITY.md). */
enum class Ev : uint16_t {
    // service
    Request,         ///< traced request entered the shard tier
    Admit,           ///< miss admitted to the compile queue
    Shed,            ///< admission rejected a miss (a0 = retry ms)
    Publish,         ///< compile published (a0 = waiters, a1 = ms)
    Evict,           ///< LRU eviction (a0 = entries, a1 = bytes)
    DeadlineExpired, ///< queued compile cancelled at dequeue
    // transports
    Accept,       ///< connection accepted (a0 = active count)
    Disconnect,   ///< connection destroyed (a0 = conn id)
    Backpressure, ///< parsing paused on write debt (a1 = pending)
    Flush,        ///< corked write flushed (a0 = replies in batch)
    // WorkerPool
    Dequeue, ///< job left the queue (a0 = job id, a1 = backlog)
    Death,   ///< injected worker death (a0 = requeued job id)
    Respawn, ///< replacement worker spawned
    // UpstreamPool
    ShardDown, ///< shard marked down (a0 = shard, a1 = flushed)
    Redial,    ///< health loop reconnected a shard (a0 = shard)
    Failover,  ///< pending request answered shard_down (a0 = shard)
    // router
    Forward, ///< request forwarded (a0 = shard, a1 = seq)
    // fault injection
    FaultCompileDelay, ///< a0 = delay ms
    FaultWorkerDeath,
    FaultWriteFail,
    FaultReadStall, ///< a0 = stall ms
    FaultConnectFail,
    FaultReset,
    // watchdog
    Stall, ///< heartbeat went silent (a0 = slot, a1 = silent ms)
    Dump,  ///< postmortem dump written (a0 = events)
    // artifact store
    StoreReplay,  ///< log replayed at startup (a0 = records, a1 = bytes)
    StoreCorrupt, ///< torn/corrupt tail truncated (a0 = good bytes)
    StoreAppend,  ///< record appended (a0 = bytes, a1 = queue depth)
    StoreDrop,    ///< append dropped on a full queue (a0 = queue cap)
    kCount
};

/** Stable lowercase names for rendering (never nullptr). */
const char *compName(Comp comp);
const char *evName(Ev ev);

/** One recorded event: 40 bytes, fixed layout, no heap. */
struct Event {
    int64_t tsUs = 0;   ///< nowMonoUs() at record time
    uint64_t trace = 0; ///< trace id, 0 when absent
    uint64_t a0 = 0;
    uint64_t a1 = 0;
    uint16_t comp = 0; ///< Comp, widened for layout
    uint16_t code = 0; ///< Ev, widened for layout
    uint32_t tid = 0;  ///< threadSlot() of the recording thread
};

class FlightRecorder
{
  public:
    /// Per-thread ring capacity (power of two; ~80 KiB per ring).
    static constexpr uint64_t kRingEvents = 2048;
    /// Peak concurrent recording threads; extras drop their events.
    static constexpr int kMaxRings = 512;

    /** One thread's ring.  The owner writes the slot first, then
     *  bumps head with release order, so a reader that loads head
     *  with acquire sees complete events below it.  Readers detect
     *  concurrent overwrite by re-reading head after the copy. */
    struct Ring {
        std::atomic<uint64_t> head{0}; ///< total events ever recorded
        Event ev[kRingEvents];
    };

    static FlightRecorder &instance();

    void record(Comp comp, Ev code, uint64_t a0 = 0, uint64_t a1 = 0,
                uint64_t trace = 0);

    /** Merged, time-ordered copy of every ring's surviving events. */
    std::vector<Event> snapshot() const;

    /** Total events ever recorded / dropped to ring wrap. */
    uint64_t recorded() const;
    uint64_t dropped() const;

    /** Raw ring access for the (signal-safe) postmortem writer. */
    int ringSlots() const
    {
        return ringCount_.load(std::memory_order_acquire);
    }
    const Ring *ringAt(int slot) const
    {
        return rings_[slot].load(std::memory_order_acquire);
    }

  private:
    friend struct TlsRingHandle;
    FlightRecorder() = default;

    Ring *localRing();
    void releaseSlot(int slot);

    std::atomic<Ring *> rings_[kMaxRings] = {};
    std::atomic<int> ringCount_{0};
    std::mutex slotMu_;
    std::vector<int> freeSlots_;
};

/** Record one event on the calling thread's ring. */
inline void
recordEvent(Comp comp, Ev code, uint64_t a0 = 0, uint64_t a1 = 0,
            uint64_t trace = 0)
{
    FlightRecorder::instance().record(comp, code, a0, a1, trace);
}

/**
 * The postmortem sink: an O_APPEND NDJSON file every dump — operator
 * {"cmd": "dump"}, watchdog stall, or crash — appends one block to:
 *
 *   {"pm": "begin", "pid": ..., "reason": ..., "signal": ...,
 *    "wall_us": ..., "mono_us": ...}
 *   {"pm": "ev", "pid": ..., "ts_us": ..., "comp": ..., "ev": ...,
 *    "tid": ..., "a0": ..., "a1": ..., "trace": "<16 hex>"?}
 *   {"pm": "metric", "pid": ..., "reg": ..., "name": ..., "kind":
 *    ..., "value": ...}
 *   {"pm": "end", "pid": ..., "events": ..., "dropped": ...}
 *
 * Configured once per process (a daemon's --postmortem flag or the
 * SQUARE_POSTMORTEM environment variable).  dump() is async-signal-
 * safe when from_signal is set: fixed buffer, write() only, best-
 * effort metric walk without taking registry locks.
 */
class Postmortem
{
  public:
    static Postmortem &instance();

    /** (Re)open `path` for appending; "" disables dumps. */
    bool configure(const std::string &path, std::string &error);

    bool enabled() const
    {
        return fd_.load(std::memory_order_acquire) >= 0;
    }

    /** The configured path ("" when disabled). */
    std::string path() const;

    /**
     * Include a metrics registry in future dumps, labelled `prefix`
     * (truncated to 31 chars).  Components unregister before their
     * registry dies; at most kMaxRegs registries at once.
     */
    void registerRegistry(const char *prefix, const Registry *reg);
    void unregisterRegistry(const Registry *reg);

    /**
     * Append one dump block.  Returns the number of ring events
     * written, or -1 when no file is configured.  `sig` non-zero
     * tags a crash dump; `from_signal` selects the lock-free path.
     */
    int64_t dump(const char *reason, int sig = 0,
                 bool from_signal = false);

    /** Install the SIGSEGV/SIGABRT/SIGBUS crash-dump handler. */
    void installCrashHandler();

  private:
    static constexpr int kMaxRegs = 32;
    struct RegSlot {
        std::atomic<const Registry *> reg{nullptr};
        char prefix[32] = {};
    };

    Postmortem() = default;

    std::atomic<int> fd_{-1};
    mutable std::mutex mu_; ///< serializes configure + normal dumps
    std::string path_;
    RegSlot regs_[kMaxRegs];
};

} // namespace obs
} // namespace square

#endif // SQUARE_OBS_FLIGHT_RECORDER_H
