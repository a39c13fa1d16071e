/**
 * @file
 * Timed instruction records and trace consumers.
 *
 * The gate scheduler emits a stream of TimedGate records (the "optimized
 * schedule of quantum gate instructions" of Fig. 4) to the one
 * TraceSink the caller attaches (CompileOptions::extraSink); it is the
 * only way the schedule leaves compile().  A VectorTrace keeps the gate
 * list for consumers that read it after the compile (the Monte-Carlo
 * noise simulator, the QASM exporter), a ClassicalSim replays it as it
 * streams.  A caller that needs two consumers composes them itself.
 */

#ifndef SQUARE_SCHEDULE_TRACE_H
#define SQUARE_SCHEDULE_TRACE_H

#include <array>
#include <cstdint>
#include <vector>

#include "ir/gate.h"
#include "ir/qubit.h"

namespace square {

/** One scheduled gate instance on physical sites. */
struct TimedGate
{
    GateKind kind = GateKind::X;
    int8_t arity = 1;
    std::array<PhysQubit, 3> sites{kNoQubit, kNoQubit, kNoQubit};
    int64_t start = 0;
    int32_t duration = 1;

    int64_t end() const { return start + duration; }
};

/**
 * Consumer of scheduled gates and reclamation events.  All methods have
 * empty defaults so consumers override only what they need.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per scheduled gate, in issue order. */
    virtual void onGate(const TimedGate &) {}

    /**
     * Called when the compiler reclaims the qubit at @p site (it is
     * guaranteed to be |0> if the compiler is correct - the functional
     * simulator asserts exactly this).
     */
    virtual void onReclaim(PhysQubit site) { (void)site; }

    /**
     * Called when the compiler resets the qubit at @p site
     * (measurement-and-reset reclamation; the site may hold garbage
     * and is forced to |0>).
     */
    virtual void onReset(PhysQubit site) { (void)site; }
};

/** TraceSink that records all gates into a vector. */
class VectorTrace : public TraceSink
{
  public:
    void onGate(const TimedGate &g) override { gates_.push_back(g); }

    const std::vector<TimedGate> &gates() const { return gates_; }

  private:
    std::vector<TimedGate> gates_;
};

} // namespace square

#endif // SQUARE_SCHEDULE_TRACE_H
