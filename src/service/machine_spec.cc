#include "service/machine_spec.h"

#include "common/flags.h"
#include "common/hash.h"

namespace square {

namespace {

/** One dimension: a whole-text integer in [1, 1000000]. */
bool
parseDim(std::string_view text, int &out)
{
    int64_t v = 0;
    if (!parseInt(text, 1, 1000000, v))
        return false;
    out = static_cast<int>(v);
    return true;
}

/** Parse "WxH", or "WxH@T" when @p allow_latency, after the colon. */
bool
parseDims(std::string_view dims, bool allow_latency, MachineSpec &out)
{
    const size_t x = dims.find('x');
    const size_t at = allow_latency ? dims.find('@') : dims.npos;
    if (x == dims.npos || (at != dims.npos && at < x))
        return false;
    return parseDim(dims.substr(0, x), out.width) &&
           parseDim(dims.substr(x + 1, at - x - 1), out.height) &&
           (at == dims.npos || parseDim(dims.substr(at + 1), out.tLatency));
}

} // namespace

Machine
MachineSpec::build() const
{
    switch (kind) {
      case Kind::NisqLattice:
        return Machine::nisqLattice(width, height);
      case Kind::NisqLatticeMacro:
        return Machine::nisqLatticeMacro(width, height);
      case Kind::FullyConnected:
        return Machine::fullyConnected(width);
      case Kind::FtBraid:
        return Machine::ftBraid(width, height, tLatency);
      case Kind::FtBraidMacro:
        return Machine::ftBraidMacro(width, height, tLatency);
    }
    return Machine::nisqLattice(width, height); // unreachable
}

uint64_t
MachineSpec::fingerprint() const
{
    // Hash only the fields the kind consumes, so specs that build the
    // same Machine fingerprint equal (e.g. full:25 ignores height).
    Fnv1a h;
    h.byte(static_cast<uint8_t>(kind));
    h.i32(width);
    if (kind != Kind::FullyConnected)
        h.i32(height);
    if (kind == Kind::FtBraid || kind == Kind::FtBraidMacro)
        h.i32(tLatency);
    return h.value();
}

std::string
MachineSpec::str() const
{
    std::string dims =
        std::to_string(width) + "x" + std::to_string(height);
    switch (kind) {
      case Kind::NisqLattice:
        return "nisq:" + dims;
      case Kind::NisqLatticeMacro:
        return "nisq-macro:" + dims;
      case Kind::FullyConnected:
        return "full:" + std::to_string(width);
      case Kind::FtBraid:
        return "ft:" + dims + "@" + std::to_string(tLatency);
      case Kind::FtBraidMacro:
        return "ft-macro:" + dims + "@" + std::to_string(tLatency);
    }
    return "nisq:" + dims; // unreachable
}

bool
MachineSpec::parse(const std::string &text, MachineSpec &out,
                   std::string &error)
{
    size_t colon = text.find(':');
    if (colon == std::string::npos) {
        error = "machine spec needs 'family:dims', got '" + text + "'";
        return false;
    }
    const std::string family = text.substr(0, colon);
    const std::string dims = text.substr(colon + 1);
    MachineSpec spec;
    if (family == "nisq" || family == "nisq-macro") {
        spec.kind = family == "nisq" ? Kind::NisqLattice
                                     : Kind::NisqLatticeMacro;
        if (!parseDims(dims, false, spec)) {
            error = "bad lattice dims '" + dims + "' (want WxH)";
            return false;
        }
    } else if (family == "full") {
        spec.kind = Kind::FullyConnected;
        if (!parseDim(dims, spec.width)) {
            error = "bad qubit count '" + dims + "' (want N > 0)";
            return false;
        }
        spec.height = 1;
    } else if (family == "ft" || family == "ft-macro") {
        spec.kind = family == "ft" ? Kind::FtBraid : Kind::FtBraidMacro;
        if (!parseDims(dims, true, spec)) {
            error = "bad FT dims '" + dims + "' (want WxH or WxH@T)";
            return false;
        }
    } else {
        error = "unknown machine family '" + family +
                "' (nisq|nisq-macro|full|ft|ft-macro)";
        return false;
    }
    // Each dimension is capped by parseDim; their product is
    // checked here, in 64 bits, before anything multiplies it as int.
    const int64_t sites = spec.kind == Kind::FullyConnected
                              ? int64_t{spec.width}
                              : int64_t{spec.width} * spec.height;
    if (sites > kMaxSites) {
        error = "machine '" + text + "' has " + std::to_string(sites) +
                " sites (max " + std::to_string(kMaxSites) + ")";
        return false;
    }
    out = spec;
    return true;
}

MachineSpec
MachineSpec::paperFor(const BenchmarkInfo &info)
{
    return info.nisqScale
               ? nisqLattice(5, 5)
               : nisqLattice(info.boundaryEdge, info.boundaryEdge);
}

MachineSpec
MachineSpec::nisqLattice(int w, int h)
{
    MachineSpec s;
    s.kind = Kind::NisqLattice;
    s.width = w;
    s.height = h;
    return s;
}

MachineSpec
MachineSpec::nisqLatticeMacro(int w, int h)
{
    MachineSpec s = nisqLattice(w, h);
    s.kind = Kind::NisqLatticeMacro;
    return s;
}

MachineSpec
MachineSpec::fullyConnected(int n)
{
    MachineSpec s;
    s.kind = Kind::FullyConnected;
    s.width = n;
    s.height = 1;
    return s;
}

MachineSpec
MachineSpec::ftBraid(int w, int h, int t_latency)
{
    MachineSpec s;
    s.kind = Kind::FtBraid;
    s.width = w;
    s.height = h;
    s.tLatency = t_latency;
    return s;
}

MachineSpec
MachineSpec::ftBraidMacro(int w, int h, int t_latency)
{
    MachineSpec s = ftBraid(w, h, t_latency);
    s.kind = Kind::FtBraidMacro;
    return s;
}

} // namespace square
