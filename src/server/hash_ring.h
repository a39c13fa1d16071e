/**
 * @file
 * Consistent-hash ring over named shard nodes (virtual-node variant).
 *
 * The fabric router (router_daemon.h) spreads the CacheKey space over a
 * pool of shard *processes*.  Modulo routing would reshuffle nearly
 * every key whenever a shard joins or leaves — discarding N-1/N of the
 * fleet's warm caches on every membership change.  A consistent-hash
 * ring moves only the keys owned by the affected node (~1/N of the
 * space), so shard add/remove/failover preserves cache locality by
 * construction.
 *
 * Each node is projected onto the 64-bit ring at kVnodes = 128 points
 * (FNV-1a of "name#replica"); a key hash is owned by the first ring
 * point clockwise from it.  More virtual nodes mean smoother balance
 * and finer-grained movement at the cost of a larger sorted table —
 * lookups stay O(log(nodes x vnodes)).  128 vnodes keeps per-node load
 * within a few percent of fair for small fleets (pinned by
 * tests/test_fabric.cc).
 *
 * The ring is a value type and NOT thread-safe; the router guards it
 * with its membership lock.  Hashes are stable across processes (FNV,
 * not std::hash), so every router replica computes identical ownership.
 */

#ifndef SQUARE_SERVER_HASH_RING_H
#define SQUARE_SERVER_HASH_RING_H

#include <cstdint>
#include <string>
#include <vector>

namespace square {

class HashRing
{
  public:
    /**
     * Ring points per node.  A constant, not a setting: routers in
     * front of the same shards must agree on which shard owns a key.
     */
    static constexpr int kVnodes = 128;

    /** Add a node (idempotent). */
    void add(const std::string &node);

    /** Remove a node; false if it was not a member. */
    bool remove(const std::string &node);

    bool contains(const std::string &node) const;

    /** Member nodes, in insertion order. */
    const std::vector<std::string> &members() const { return names_; }

    size_t nodes() const { return names_.size(); }
    bool empty() const { return names_.empty(); }

    /**
     * Index (into members()) of the node owning @p key_hash, or -1 on
     * an empty ring.  Stable for a fixed membership.
     */
    int ownerIndex(uint64_t key_hash) const;

    /** Name of the owning node ("" on an empty ring). */
    const std::string &owner(uint64_t key_hash) const;

  private:
    struct Point
    {
        uint64_t at;
        uint32_t node; ///< index into names_

        bool
        operator<(const Point &o) const
        {
            // Tie-break on the node index so ownership is total even
            // if two vnode projections collide.
            return at != o.at ? at < o.at : node < o.node;
        }
    };

    /** Rebuild the sorted point table from names_. */
    void rebuild();

    std::vector<std::string> names_;
    std::vector<Point> ring_; ///< sorted by Point::at
};

} // namespace square

#endif // SQUARE_SERVER_HASH_RING_H
