#include "fleet/worker_pool.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "obs/watchdog.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace {

void
applyNiceness(int niceness)
{
#if defined(__linux__)
    // setpriority with a thread id adjusts only the calling thread on
    // Linux.  Best-effort: an EPERM (raising priority needs caps) just
    // leaves the worker at the default.
    if (niceness > 0)
        setpriority(PRIO_PROCESS,
                    static_cast<id_t>(syscall(SYS_gettid)), niceness);
#else
    (void)niceness;
#endif
}

} // namespace

namespace square {

WorkerPool::WorkerPool(int workers, int niceness)
    : workers_(workers < 1 ? 1 : workers), niceness_(niceness)
{
    std::lock_guard<std::mutex> lock(mu_);
    threads_.reserve(static_cast<size_t>(workers_));
    for (int i = 0; i < workers_; ++i)
        threads_.emplace_back([this] { run(); });
}

WorkerPool::~WorkerPool() { stop(); }

void
WorkerPool::post(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(Item{nextId_++, std::move(job)});
    }
    cv_.notify_one();
}

void
WorkerPool::setDeathHook(std::function<bool()> hook)
{
    std::lock_guard<std::mutex> lock(mu_);
    deathHook_ = std::move(hook);
}

void
WorkerPool::run()
{
    applyNiceness(niceness_); // replacement threads re-enter here too
    // Watchdog discipline: idle while parked on the cv, beat at
    // dequeue, busy for the job itself — a slow compile (including an
    // injected compile_delay_ms) is legitimate work, not a stall.
    obs::WatchdogRegistration wd("worker");
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        wd.idle();
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        wd.beat();
        if (stop_)
            return;
        Item item = std::move(queue_.front());
        queue_.pop_front();
        obs::recordEvent(obs::Comp::Worker, obs::Ev::Dequeue, item.id,
                         queue_.size());
        // Fault injection: the death probe runs under mu_ (it is a
        // cheap seeded coin flip).  A dying worker re-queues its job
        // at the FRONT — never lost, never reordered behind newer
        // work — and hands its slot to a replacement thread.
        if (deathHook_ && deathHook_()) {
            queue_.push_front(std::move(item));
            ++deaths_;
            obs::recordEvent(obs::Comp::Worker, obs::Ev::Death,
                             item.id,
                             static_cast<uint64_t>(deaths_));
            threads_.emplace_back([this] { run(); });
            obs::recordEvent(obs::Comp::Worker, obs::Ev::Respawn);
            lock.unlock();
            cv_.notify_one();
            return;
        }
        lock.unlock();
        wd.busy();
        item.fn();
        wd.beat();
        lock.lock();
    }
}

void
WorkerPool::stop()
{
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_ && threads_.empty())
            return;
        stop_ = true;
        threads.swap(threads_);
        queue_.clear(); // abandoned by contract (see header)
    }
    cv_.notify_all();
    for (std::thread &t : threads) {
        if (t.joinable())
            t.join();
    }
    // A worker that died while stop() was swapping may have appended
    // its replacement after the swap; reap any stragglers.
    for (;;) {
        std::vector<std::thread> late;
        {
            std::lock_guard<std::mutex> lock(mu_);
            late.swap(threads_);
        }
        if (late.empty())
            break;
        for (std::thread &t : late) {
            if (t.joinable())
                t.join();
        }
    }
}

int64_t
WorkerPool::deaths() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return deaths_;
}

} // namespace square
