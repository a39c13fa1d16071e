/**
 * @file
 * Lattice geometry behind an opaque Topology subclass, shared by the
 * parity tests.  Code that specializes on LatticeTopology (the
 * allocator's ring walk, the swap router's closed-form chains) fails
 * its dynamic_cast here and takes its generic virtual-dispatch path on
 * geometry identical to a real LatticeTopology.
 */

#ifndef SQUARE_TESTS_OPAQUE_LATTICE_H
#define SQUARE_TESTS_OPAQUE_LATTICE_H

#include <string>
#include <utility>
#include <vector>

#include "arch/topology.h"

namespace square {

class OpaqueLattice final : public Topology
{
  public:
    OpaqueLattice(int w, int h) : inner_(w, h) {}

    int numSites() const override { return inner_.numSites(); }
    void
    forEachNeighbor(PhysQubit site, NeighborFn fn) const override
    {
        inner_.forEachNeighbor(site, fn);
    }
    int
    distance(PhysQubit a, PhysQubit b) const override
    {
        return inner_.distance(a, b);
    }
    void
    pathInto(PhysQubit a, PhysQubit b,
             std::vector<PhysQubit> &out) const override
    {
        inner_.pathInto(a, b, out);
    }
    std::pair<double, double>
    coords(PhysQubit site) const override
    {
        return inner_.coords(site);
    }
    std::string name() const override { return "opaque-" + inner_.name(); }

  private:
    LatticeTopology inner_;
};

} // namespace square

#endif // SQUARE_TESTS_OPAQUE_LATTICE_H
