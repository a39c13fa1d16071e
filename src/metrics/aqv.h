/**
 * @file
 * Active Quantum Volume (AQV) accounting.
 *
 * AQV (Sec. III-B) is the sum over all qubits of the total time each
 * spends "live" (allocated and not yet reclaimed):
 *
 *     V_A = sum_q sum_(ti,tf) (tf - ti)
 *
 * Time spent on the ancilla heap (qubit restored to |0>) is excluded -
 * a grounded qubit does not decohere.  Liveness segments are recorded
 * against the scheduler's cycle clock; the tracker also produces the
 * qubit-usage-over-time step curve of Fig. 1.
 */

#ifndef SQUARE_METRICS_AQV_H
#define SQUARE_METRICS_AQV_H

#include <cstdint>
#include <vector>

#include "arch/layout.h"

namespace square {

/** One (time, live-count) step of the qubit-usage curve. */
struct UsagePoint
{
    int64_t time = 0;
    int live = 0;
};

/** Records liveness segments and integrates AQV. */
class AqvTracker
{
  public:
    /**
     * Reserve room for @p qubits logical qubits: one open segment and
     * two events (alloc and free) each.
     */
    void reserve(size_t qubits);

    /** Begin a liveness segment for @p q at time @p t. */
    void onAlloc(LogicalQubit q, int64_t t);

    /** End the liveness segment of @p q at time @p t. */
    void onFree(LogicalQubit q, int64_t t);

    /** Close all open segments at program end (@p makespan). */
    void finish(int64_t makespan);

    /** Total active quantum volume accumulated so far. */
    int64_t aqv() const { return aqv_; }

    /**
     * The qubit-usage step curve: live-qubit count after each
     * allocation/reclamation event, ordered by time (Fig. 1).
     */
    std::vector<UsagePoint> usageCurve() const;

  private:
    struct Event
    {
        int64_t time;
        int delta; // +1 alloc, -1 free
    };

    std::vector<int64_t> open_;  // per logical qubit: start or -1
    std::vector<Event> events_;
    int64_t aqv_ = 0;
};

} // namespace square

#endif // SQUARE_METRICS_AQV_H
