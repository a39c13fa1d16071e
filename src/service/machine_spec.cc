#include "service/machine_spec.h"

#include <cctype>
#include <cstdlib>

#include "common/hash.h"

namespace square {

namespace {

/** Parse a positive integer prefix of @p s; advances the cursor. */
bool
parsePositive(const std::string &s, size_t &pos, int &out)
{
    size_t start = pos;
    long v = 0;
    while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
        v = v * 10 + (s[pos] - '0');
        if (v > 1000000)
            return false;
        ++pos;
    }
    if (pos == start || v <= 0)
        return false;
    out = static_cast<int>(v);
    return true;
}

/** Parse "WxH" or "WxH@T" after the colon. */
bool
parseDims(const std::string &dims, bool allow_latency, MachineSpec &out)
{
    size_t pos = 0;
    if (!parsePositive(dims, pos, out.width))
        return false;
    if (pos >= dims.size() || dims[pos] != 'x')
        return false;
    ++pos;
    if (!parsePositive(dims, pos, out.height))
        return false;
    if (pos == dims.size())
        return true;
    if (!allow_latency || dims[pos] != '@')
        return false;
    ++pos;
    if (!parsePositive(dims, pos, out.tLatency))
        return false;
    return pos == dims.size();
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
        size_t pos = 0;
        if (!parsePositive(dims, pos, spec.width) || pos != dims.size()) {
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
    // Each dimension is capped by parsePositive; their product is
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
