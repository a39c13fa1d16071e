#include "arch/topology.h"

#include <cmath>
#include <cstdlib>
#include <numbers>

#include "common/logging.h"

namespace square {

// ---------------------------------------------------------------------
// LatticeTopology
// ---------------------------------------------------------------------

LatticeTopology::LatticeTopology(int width, int height)
    : width_(width), height_(height)
{
    if (width <= 0 || height <= 0)
        fatal("lattice dimensions must be positive: ", width, "x", height);
}

int
LatticeTopology::distance(PhysQubit a, PhysQubit b) const
{
    return std::abs(xOf(a) - xOf(b)) + std::abs(yOf(a) - yOf(b));
}

void
LatticeTopology::pathInto(PhysQubit a, PhysQubit b,
                          std::vector<PhysQubit> &out) const
{
    // L-shaped shortest route: horizontal leg first, then vertical.
    out.clear();
    int x = xOf(a), y = yOf(a);
    const int bx = xOf(b), by = yOf(b);
    out.push_back(a);
    while (x != bx) {
        x += (bx > x) ? 1 : -1;
        out.push_back(siteAt(x, y));
    }
    while (y != by) {
        y += (by > y) ? 1 : -1;
        out.push_back(siteAt(x, y));
    }
}

std::pair<double, double>
LatticeTopology::coords(PhysQubit site) const
{
    return {static_cast<double>(xOf(site)), static_cast<double>(yOf(site))};
}

std::string
LatticeTopology::name() const
{
    return "lattice-" + std::to_string(width_) + "x" +
           std::to_string(height_);
}

// ---------------------------------------------------------------------
// FullTopology
// ---------------------------------------------------------------------

FullTopology::FullTopology(int n) : n_(n)
{
    if (n <= 0)
        fatal("fully-connected topology needs a positive size, got ", n);
    // Sites arranged on a circle: coordinates exist for heuristic use
    // but all pairs are adjacent.
    coords_.reserve(static_cast<size_t>(n));
    for (PhysQubit site = 0; site < n; ++site) {
        double theta = 2.0 * std::numbers::pi * site / n_;
        coords_.emplace_back(std::cos(theta), std::sin(theta));
    }
}

int
FullTopology::distance(PhysQubit a, PhysQubit b) const
{
    return a == b ? 0 : 1;
}

void
FullTopology::pathInto(PhysQubit a, PhysQubit b,
                       std::vector<PhysQubit> &out) const
{
    out.clear();
    out.push_back(a);
    if (a != b)
        out.push_back(b);
}

std::string
FullTopology::name() const
{
    return "full-" + std::to_string(n_);
}

} // namespace square
