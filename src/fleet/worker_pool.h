/**
 * @file
 * Persistent worker pool: the one pool every compilation runs on.
 *
 * The compile service (service.h) starts one pool with itself and
 * posts every cache miss to it as one job, whether the requester waits
 * (submit) or not (an event loop's async cold path).  The pool
 * outlives any one request, accepts work without blocking the poster,
 * and supports one operation beyond FIFO dispatch: a death hook, a
 * fault-injection probe consulted once per dequeued job.  When it
 * fires, the worker "dies" — it pushes the job back to the FRONT of
 * the queue (the job is never lost, never reordered behind newer
 * work), spawns a replacement thread, bumps the death counter, and
 * exits.  Recovery is therefore part of the pool's contract, not
 * something callers build on top.
 *
 * Jobs are opaque std::function<void()> thunks: the pool knows nothing
 * about compilations, so it lives in src/fleet/ with no dependency on
 * the service or server layers.
 *
 * Shutdown contract: stop() wakes and joins every worker (including
 * replaced ones) and ABANDONS jobs still queued.  Owners must
 * therefore quiesce producers first — the compile service only
 * destroys its pool after the transports and callers that feed it are
 * gone (see CompileService::~CompileService).
 */

#ifndef SQUARE_FLEET_WORKER_POOL_H
#define SQUARE_FLEET_WORKER_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace square {

class WorkerPool
{
  public:
    /**
     * Start @p workers threads (clamped to at least 1).  A positive
     * @p niceness lowers the workers' CPU scheduling priority
     * (per-thread nice on Linux, no-op elsewhere): compile jobs are
     * background work relative to latency-critical serving threads,
     * and on a CPU-saturated host an un-niced compile steals whole
     * scheduler quanta (~ms) from the warm-reply tail.
     */
    explicit WorkerPool(int workers, int niceness = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Enqueue one job.  Jobs run in FIFO order, one per worker at a
     * time; each gets a monotonic id for the flight recorder's
     * dequeue and death events.
     */
    void post(std::function<void()> job);

    /**
     * Install the fault-injection death probe, consulted once per
     * dequeued job BEFORE the job runs.  Returning true kills the
     * current worker (job re-queued at the front, replacement thread
     * spawned).  Pass nullptr to clear.  Thread-safe.
     */
    void setDeathHook(std::function<bool()> hook);

    /**
     * Join every worker and abandon queued jobs.  Idempotent; must
     * not be called from a worker thread.
     */
    void stop();

    int workers() const { return workers_; }

    /** Workers killed by the death hook (each one was replaced). */
    int64_t deaths() const;

  private:
    struct Item
    {
        uint64_t id;
        std::function<void()> fn;
    };

    void run();

    const int workers_;
    const int niceness_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Item> queue_;
    std::vector<std::thread> threads_; ///< includes dead + replacements
    std::function<bool()> deathHook_;
    uint64_t nextId_ = 1;
    int64_t deaths_ = 0;
    bool stop_ = false;
};

} // namespace square

#endif // SQUARE_FLEET_WORKER_POOL_H
