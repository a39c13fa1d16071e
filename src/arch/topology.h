/**
 * @file
 * Machine connectivity models.
 *
 * A Topology describes the sites (physical locations for qubits) of a
 * machine and which pairs may interact directly.  Two concrete models
 * cover the paper's experiments:
 *
 *  - LatticeTopology: W x H grid with nearest-neighbor connectivity, the
 *    standard NISQ superconducting layout (and the site grid of the
 *    surface-code model);
 *  - FullTopology: all-to-all connectivity (trapped-ion style), used for
 *    the Fig. 5 locality experiment.
 *
 * The allocation-free forms forEachNeighbor() and pathInto() are the
 * virtual primitives; the vector-returning neighbors() and path() are
 * thin convenience wrappers for tests and cold paths.  Hot loops
 * (allocator BFS, swap routing) must use the *Into/forEach forms so the
 * inner loops stay heap-allocation-free in steady state.
 */

#ifndef SQUARE_ARCH_TOPOLOGY_H
#define SQUARE_ARCH_TOPOLOGY_H

#include <memory>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/logging.h"
#include "ir/qubit.h"

namespace square {

/** Callback receiving one neighbor site id. */
using NeighborFn = FunctionRef<void(PhysQubit)>;

/** Abstract connectivity model over integer site ids [0, numSites). */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Number of physical sites. */
    virtual int numSites() const = 0;

    /** Invoke @p fn for every site directly connected to @p site. */
    virtual void forEachNeighbor(PhysQubit site, NeighborFn fn) const = 0;

    /** Hop distance between two sites (0 when equal). */
    virtual int distance(PhysQubit a, PhysQubit b) const = 0;

    /**
     * Write a shortest path from @p a to @p b inclusive of both
     * endpoints (size = distance + 1) into @p out, replacing its
     * contents.  Reusing one scratch vector across calls makes routing
     * allocation-free once its capacity has grown.
     */
    virtual void pathInto(PhysQubit a, PhysQubit b,
                          std::vector<PhysQubit> &out) const = 0;

    /** Planar coordinates of a site (for centroid/area heuristics). */
    virtual std::pair<double, double> coords(PhysQubit site) const = 0;

    /**
     * An upper bound of distance() over all site pairs, so a pathInto()
     * scratch of diameter() + 1 sites never grows.  The default holds
     * for any connected topology.
     */
    virtual int diameter() const { return numSites() - 1; }

    /** Human-readable description. */
    virtual std::string name() const = 0;

    /** Sites directly connected to @p site (allocating wrapper). */
    std::vector<PhysQubit>
    neighbors(PhysQubit site) const
    {
        std::vector<PhysQubit> out;
        out.reserve(4);
        forEachNeighbor(site, [&](PhysQubit s) { out.push_back(s); });
        return out;
    }

    /**
     * A shortest path from @p a to @p b inclusive of both endpoints
     * (allocating wrapper over pathInto).
     */
    std::vector<PhysQubit>
    path(PhysQubit a, PhysQubit b) const
    {
        std::vector<PhysQubit> out;
        pathInto(a, b, out);
        return out;
    }

    /** True if a and b may interact without routing. */
    bool
    adjacent(PhysQubit a, PhysQubit b) const
    {
        return distance(a, b) <= 1;
    }
};

/** W x H grid, nearest-neighbor (Manhattan) connectivity. */
class LatticeTopology final : public Topology
{
  public:
    LatticeTopology(int width, int height);

    int numSites() const override { return width_ * height_; }

    void
    forEachNeighbor(PhysQubit site, NeighborFn fn) const override
    {
        SQ_ASSERT(site >= 0 && site < numSites(), "site out of range");
        const int x = xOf(site), y = yOf(site);
        if (x > 0)
            fn(site - 1);
        if (x + 1 < width_)
            fn(site + 1);
        if (y > 0)
            fn(site - width_);
        if (y + 1 < height_)
            fn(site + width_);
    }

    int distance(PhysQubit a, PhysQubit b) const override;
    void pathInto(PhysQubit a, PhysQubit b,
                  std::vector<PhysQubit> &out) const override;
    std::pair<double, double> coords(PhysQubit site) const override;
    std::string name() const override;

    int width() const { return width_; }
    int height() const { return height_; }

    int xOf(PhysQubit site) const { return site % width_; }
    int yOf(PhysQubit site) const { return site / width_; }
    PhysQubit siteAt(int x, int y) const { return y * width_ + x; }

  private:
    int width_;
    int height_;
};

/** All-to-all connectivity over n sites. */
class FullTopology final : public Topology
{
  public:
    explicit FullTopology(int n);

    int numSites() const override { return n_; }

    void
    forEachNeighbor(PhysQubit site, NeighborFn fn) const override
    {
        for (PhysQubit s = 0; s < n_; ++s) {
            if (s != site)
                fn(s);
        }
    }

    int distance(PhysQubit a, PhysQubit b) const override;
    void pathInto(PhysQubit a, PhysQubit b,
                  std::vector<PhysQubit> &out) const override;
    std::pair<double, double>
    coords(PhysQubit site) const override
    {
        return coords_[static_cast<size_t>(site)];
    }
    int diameter() const override { return n_ > 1 ? 1 : 0; }
    std::string name() const override;

  private:
    int n_;
    /** Site positions on a circle, computed once (sweeps and sorts
        read them per visit and per comparison). */
    std::vector<std::pair<double, double>> coords_;
};

} // namespace square

#endif // SQUARE_ARCH_TOPOLOGY_H
