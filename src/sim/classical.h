/**
 * @file
 * Noiseless classical simulation of compiled schedules.
 *
 * Benchmark circuits are classical reversible logic, so a compiled
 * schedule (with macro Toffolis) acts on computational-basis states as
 * a permutation of bit strings.  applyClassical() is that action for
 * one scheduled gate, over one byte per machine site; both replays of
 * a schedule - the ClassicalSim below and the Monte-Carlo trajectories
 * of noise/trajectory.h - step through it.
 *
 * The ClassicalSim applies every scheduled gate as the compiler emits
 * it and - crucially - checks the compiler's core invariant at every
 * reclamation: a site pushed to the ancilla heap must hold |0>.  A
 * wrong uncompute decision or a broken inverse-replay would trip the
 * check immediately.
 */

#ifndef SQUARE_SIM_CLASSICAL_H
#define SQUARE_SIM_CLASSICAL_H

#include <cstdint>
#include <vector>

#include "schedule/trace.h"

namespace square {

/**
 * Apply @p g to @p bits (one byte per site, 0 or 1): X, CNOT,
 * Toffoli and SWAP permute basis states, the phase gates (Z, S, Sdg,
 * T, Tdg, CZ) leave them alone.  Fatal on H, which has no basis-state
 * action: compile on a macro-Toffoli machine for classical replays.
 */
void applyClassical(const TimedGate &g, uint8_t *bits);

/** Bit-per-site functional simulator and reclamation checker. */
class ClassicalSim : public TraceSink
{
  public:
    explicit ClassicalSim(int num_sites)
        : bits_(static_cast<size_t>(num_sites), 0)
    {}

    /** Set an input bit before execution. */
    void
    setBit(PhysQubit site, bool value)
    {
        bits_.at(static_cast<size_t>(site)) = value ? 1 : 0;
    }

    /** Current value of a site. */
    bool bit(PhysQubit site) const
    {
        return bits_.at(static_cast<size_t>(site)) != 0;
    }

    /** Read several sites (e.g. the primary outputs). */
    std::vector<bool> read(const std::vector<PhysQubit> &sites) const;

    /** Count of reclamations that found a non-zero qubit (must be 0). */
    int64_t reclaimViolations() const { return reclaim_violations_; }

    /** Number of sites holding 1. */
    int64_t onesCount() const;

    /** Reset events observed (measurement-and-reset policy). */
    int64_t resets() const { return resets_; }

    // -- TraceSink ------------------------------------------------------
    void
    onGate(const TimedGate &g) override
    {
        applyClassical(g, bits_.data());
    }
    void onReclaim(PhysQubit site) override;
    void onReset(PhysQubit site) override;

  private:
    std::vector<uint8_t> bits_;
    int64_t reclaim_violations_ = 0;
    int64_t resets_ = 0;
};

} // namespace square

#endif // SQUARE_SIM_CLASSICAL_H
