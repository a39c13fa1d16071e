/**
 * @file
 * OpenQASM 2.0 export of compiled schedules.
 *
 * Lets downstream users run SQUARE-compiled circuits on external stacks
 * (Qiskit, tket, simulators).  The schedule a VectorTrace recorded
 * during the compile is emitted in issue order with one qreg covering
 * the machine's sites; optional creg/measure lines read out the
 * primary qubits at their final sites.
 */

#ifndef SQUARE_QASM_EXPORT_H
#define SQUARE_QASM_EXPORT_H

#include <iosfwd>
#include <span>
#include <string>

#include "core/compiler.h"

namespace square {

/** Options for QASM emission. */
struct QasmOptions
{
    /** Emit a creg plus measure statements for the primary outputs. */
    bool measurePrimaries = true;
    /** Emit `// t=<start>` scheduling comments. */
    bool timingComments = false;
};

/**
 * Serialize a compiled schedule as OpenQASM 2.0.
 *
 * @param r         the compile's result (labels, counts, primaries)
 * @param schedule  the gates a VectorTrace recorded during that compile
 *                  (fatal when empty)
 * @param num_sites machine size (qreg width)
 */
std::string exportQasm(const CompileResult &r,
                       std::span<const TimedGate> schedule, int num_sites,
                       const QasmOptions &options = {});

/** Stream variant of exportQasm(). */
void exportQasm(const CompileResult &r, std::span<const TimedGate> schedule,
                int num_sites, std::ostream &os,
                const QasmOptions &options = {});

} // namespace square

#endif // SQUARE_QASM_EXPORT_H
