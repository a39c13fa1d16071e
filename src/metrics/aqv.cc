#include "metrics/aqv.h"

#include <algorithm>

#include "common/logging.h"

namespace square {

void
AqvTracker::reserve(size_t qubits)
{
    open_.reserve(qubits);
    events_.reserve(2 * qubits);
}

void
AqvTracker::onAlloc(LogicalQubit q, int64_t t)
{
    SQ_ASSERT(q >= 0, "invalid logical qubit");
    if (static_cast<size_t>(q) >= open_.size())
        open_.resize(static_cast<size_t>(q) + 1, -1);
    SQ_ASSERT(open_[static_cast<size_t>(q)] < 0,
              "allocating an already-live qubit");
    open_[static_cast<size_t>(q)] = t;
    events_.push_back({t, +1});
}

void
AqvTracker::onFree(LogicalQubit q, int64_t t)
{
    SQ_ASSERT(q >= 0 && static_cast<size_t>(q) < open_.size() &&
                  open_[static_cast<size_t>(q)] >= 0,
              "freeing a qubit with no open segment");
    int64_t start = open_[static_cast<size_t>(q)];
    // A qubit allocated but never gated can be reclaimed while its
    // site clock still reads earlier than the allocation's ready time;
    // clamp to a zero-length segment.
    t = std::max(t, start);
    aqv_ += t - start;
    open_[static_cast<size_t>(q)] = -1;
    events_.push_back({t, -1});
}

void
AqvTracker::finish(int64_t makespan)
{
    for (size_t q = 0; q < open_.size(); ++q) {
        if (open_[q] >= 0)
            onFree(static_cast<LogicalQubit>(q), makespan);
    }
}

std::vector<UsagePoint>
AqvTracker::usageCurve() const
{
    std::vector<Event> sorted = events_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Event &a, const Event &b) {
                         return a.time < b.time;
                     });
    std::vector<UsagePoint> curve;
    curve.reserve(sorted.size());
    int live = 0;
    for (const Event &e : sorted) {
        live += e.delta;
        if (!curve.empty() && curve.back().time == e.time)
            curve.back().live = live;
        else
            curve.push_back({e.time, live});
    }
    return curve;
}

} // namespace square
