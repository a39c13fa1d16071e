/**
 * @file
 * Value-type machine descriptions for the service layer.
 *
 * A Machine is non-copyable (it owns a Topology), which is right for
 * compilation but wrong for a request object: service requests must be
 * cheap to copy, compare, and fingerprint.  MachineSpec is the value
 * half of that split — a plain description (family + dimensions +
 * T-gate latency) that builds a fresh Machine on demand and hashes
 * stably for content-addressed cache keys.
 *
 * The textual form used by the square_serve protocol mirrors the
 * factories on Machine:
 *
 *   "nisq:WxH"        Machine::nisqLattice(W, H)
 *   "nisq-macro:WxH"  Machine::nisqLatticeMacro(W, H)
 *   "full:N"          Machine::fullyConnected(N)
 *   "ft:WxH@T"        Machine::ftBraid(W, H, T)     (@T optional)
 *   "ft-macro:WxH@T"  Machine::ftBraidMacro(W, H, T)
 */

#ifndef SQUARE_SERVICE_MACHINE_SPEC_H
#define SQUARE_SERVICE_MACHINE_SPEC_H

#include <cstdint>
#include <string>

#include "arch/machine.h"
#include "workloads/registry.h"

namespace square {

/** Copyable, fingerprintable description of a compilation target. */
struct MachineSpec
{
    /**
     * The largest machine parse() accepts, in sites.  Specs arrive off
     * the wire, and topology site arithmetic is int; the largest
     * registry machine (MUL64's 64x64) has 4096.
     */
    static constexpr int64_t kMaxSites = 65536;

    enum class Kind : uint8_t {
        NisqLattice,
        NisqLatticeMacro,
        FullyConnected,
        FtBraid,
        FtBraidMacro
    };

    Kind kind = Kind::NisqLattice;
    /** Lattice width, or qubit count for FullyConnected. */
    int width = 5;
    /** Lattice height (ignored for FullyConnected). */
    int height = 5;
    /** T-gate latency for the FT families (ignored elsewhere). */
    int tLatency = 10;

    /** Build the machine this spec describes. */
    Machine build() const;

    /** Stable content hash (only fields the Kind consumes). */
    uint64_t fingerprint() const;

    /** The protocol's textual form, e.g. "nisq:5x5". */
    std::string str() const;

    /**
     * Parse the textual form; returns false (with a message in
     * @p error) on malformed input or a machine above kMaxSites.
     */
    static bool parse(const std::string &text, MachineSpec &out,
                      std::string &error);

    /** The paper-scale NISQ machine for a registry benchmark. */
    static MachineSpec paperFor(const BenchmarkInfo &info);

    // -- Factories mirroring Machine's --------------------------------
    static MachineSpec nisqLattice(int w, int h);
    static MachineSpec nisqLatticeMacro(int w, int h);
    static MachineSpec fullyConnected(int n);
    static MachineSpec ftBraid(int w, int h, int t_latency = 10);
    static MachineSpec ftBraidMacro(int w, int h, int t_latency = 10);
};

} // namespace square

#endif // SQUARE_SERVICE_MACHINE_SPEC_H
