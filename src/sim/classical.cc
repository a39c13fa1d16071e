#include "sim/classical.h"

#include <utility>

#include "common/logging.h"

namespace square {

std::vector<bool>
ClassicalSim::read(const std::vector<PhysQubit> &sites) const
{
    std::vector<bool> out;
    out.reserve(sites.size());
    for (PhysQubit s : sites)
        out.push_back(bit(s));
    return out;
}

int64_t
ClassicalSim::onesCount() const
{
    int64_t n = 0;
    for (uint8_t b : bits_)
        n += b ? 1 : 0;
    return n;
}

void
applyClassical(const TimedGate &g, uint8_t *bits)
{
    auto at = [&](int i) -> uint8_t & {
        return bits[static_cast<size_t>(g.sites[static_cast<size_t>(i)])];
    };
    switch (g.kind) {
      case GateKind::X:
        at(0) = !at(0);
        return;
      case GateKind::CNOT:
        if (at(0))
            at(1) = !at(1);
        return;
      case GateKind::Toffoli:
        if (at(0) && at(1))
            at(2) = !at(2);
        return;
      case GateKind::Swap:
        std::swap(at(0), at(1));
        return;
      case GateKind::Z:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::CZ:
        // Phase gates act trivially on basis states.
        return;
      case GateKind::H:
        fatal("classical replay cannot execute H; compile on "
              "Machine::nisqLatticeMacro or Machine::fullyConnected "
              "(macro Toffoli)");
      default:
        panic("unhandled gate kind in classical replay");
    }
}

void
ClassicalSim::onReclaim(PhysQubit site)
{
    if (bit(site))
        ++reclaim_violations_;
}

void
ClassicalSim::onReset(PhysQubit site)
{
    bits_[static_cast<size_t>(site)] = 0;
    ++resets_;
}

} // namespace square
