#include "route/swap_router.h"

namespace square {

SwapRouter::SwapRouter(const Topology &topo) : topo_(topo)
{
    if (auto *lattice = dynamic_cast<const LatticeTopology *>(&topo)) {
        width_ = lattice->width();
        width_inverse_ = UINT64_MAX / static_cast<uint64_t>(width_) + 1;
    } else {
        route_.reserve(static_cast<size_t>(topo.diameter()) + 1);
    }
}

} // namespace square
