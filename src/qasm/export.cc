#include "qasm/export.h"

#include <ostream>
#include <sstream>

#include "common/logging.h"

namespace square {

namespace {

/** QASM mnemonic for a gate kind. */
const char *
qasmName(GateKind kind)
{
    switch (kind) {
      case GateKind::X: return "x";
      case GateKind::CNOT: return "cx";
      case GateKind::Toffoli: return "ccx";
      case GateKind::Swap: return "swap";
      case GateKind::H: return "h";
      case GateKind::Z: return "z";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::T: return "t";
      case GateKind::Tdg: return "tdg";
      case GateKind::CZ: return "cz";
      default:
        panic("gate kind has no QASM name");
    }
}

} // namespace

void
exportQasm(const CompileResult &r, std::span<const TimedGate> schedule,
           int num_sites, std::ostream &os, const QasmOptions &options)
{
    if (schedule.empty())
        fatal("QASM export requires a recorded schedule (a VectorTrace "
              "attached as CompileOptions::extraSink)");

    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
    os << "// compiled by SQUARE: policy " << r.policyLabel
       << ", machine " << r.machineLabel << "\n";
    os << "// gates " << r.gates << ", swaps " << r.swaps << ", depth "
       << r.depth << " cycles, AQV " << r.aqv << "\n";
    os << "qreg q[" << num_sites << "];\n";
    if (options.measurePrimaries && !r.primaryFinalSites.empty())
        os << "creg c[" << r.primaryFinalSites.size() << "];\n";

    for (const TimedGate &g : schedule) {
        os << qasmName(g.kind);
        for (int i = 0; i < g.arity; ++i) {
            os << (i ? ", " : " ") << "q["
               << g.sites[static_cast<size_t>(i)] << "]";
        }
        os << ";";
        if (options.timingComments)
            os << " // t=" << g.start;
        os << "\n";
    }

    if (options.measurePrimaries) {
        for (size_t i = 0; i < r.primaryFinalSites.size(); ++i) {
            os << "measure q[" << r.primaryFinalSites[i] << "] -> c["
               << i << "];\n";
        }
    }
}

std::string
exportQasm(const CompileResult &r, std::span<const TimedGate> schedule,
           int num_sites, const QasmOptions &options)
{
    std::ostringstream os;
    exportQasm(r, schedule, num_sites, os, options);
    return os.str();
}

} // namespace square
