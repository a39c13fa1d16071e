/**
 * @file
 * A counted wait: the caller blocks until N arrivals.
 *
 * The serving stack uses it wherever a synchronous caller parks on a
 * reply that another thread delivers (CompileService::submit,
 * CompileServer::handleLineTo with no async sink).
 */

#ifndef SQUARE_COMMON_LATCH_H
#define SQUARE_COMMON_LATCH_H

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace square {

/**
 * Unlike std::latch, the count drops under the mutex, so the waiter
 * cannot return (and destroy the latch) while arrive() still touches
 * it; everything written before arrive() is visible after wait().
 */
class Latch
{
  public:
    explicit Latch(size_t count) : pending_(count) {}

    Latch(const Latch &) = delete;
    Latch &operator=(const Latch &) = delete;

    void
    arrive()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0)
            cv_.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return pending_ == 0; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    size_t pending_;
};

} // namespace square

#endif // SQUARE_COMMON_LATCH_H
