/**
 * @file
 * Gate vocabulary of the SQUARE intermediate representation.
 *
 * The IR keeps reversible-arithmetic circuits at the Toffoli level of
 * abstraction (X / CNOT / Toffoli / SWAP); the scheduler may later lower
 * Toffoli and SWAP to Clifford+T per the target machine.  Non-classical
 * gates (H, S, T, ...) are representable so that decomposition output and
 * full quantum examples share the same data structures, but compute
 * blocks that are subject to uncomputation must be classical-reversible
 * (checked by ir/validate).
 */

#ifndef SQUARE_IR_GATE_H
#define SQUARE_IR_GATE_H

#include <cstdint>
#include <iterator>
#include <string_view>

#include "common/logging.h"

namespace square {

/** Kinds of primitive gates representable in the IR. */
enum class GateKind : uint8_t {
    X,        ///< Pauli-X (NOT)
    CNOT,     ///< controlled-NOT
    Toffoli,  ///< controlled-controlled-NOT (CCX)
    Swap,     ///< two-qubit SWAP
    H,        ///< Hadamard
    Z,        ///< Pauli-Z
    S,        ///< phase gate sqrt(Z)
    Sdg,      ///< inverse phase gate
    T,        ///< pi/8 gate
    Tdg,      ///< inverse T
    CZ,       ///< controlled-Z
    NumKinds
};

/**
 * Operand count of each kind, indexed by GateKind.  The scheduler reads
 * it several times per gate, so gateArity() is an inline table read.
 */
inline constexpr int8_t kGateArity[] = {
    /* X */ 1, /* CNOT */ 2, /* Toffoli */ 3, /* Swap */ 2, /* H */ 1,
    /* Z */ 1, /* S */ 1,    /* Sdg */ 1,     /* T */ 1,    /* Tdg */ 1,
    /* CZ */ 2,
};
static_assert(std::size(kGateArity) ==
              static_cast<size_t>(GateKind::NumKinds));

/** Number of qubit operands the gate takes. */
inline int
gateArity(GateKind kind)
{
    const auto idx = static_cast<size_t>(kind);
    SQ_ASSERT(idx < std::size(kGateArity), "gate kind out of range");
    return kGateArity[idx];
}

/** True if the gate implements classical reversible logic. */
bool gateIsClassical(GateKind kind);

/** The gate kind realizing the inverse unitary. */
GateKind gateInverse(GateKind kind);

/** Canonical mnemonic, e.g. "Toffoli". */
std::string_view gateName(GateKind kind);

/**
 * Parse a mnemonic into a gate kind (case-sensitive; accepts the aliases
 * "NOT" for X and "CCNOT"/"CCX" for Toffoli and "CX" for CNOT).
 *
 * @return true on success.
 */
bool gateFromName(std::string_view name, GateKind &out);

} // namespace square

#endif // SQUARE_IR_GATE_H
