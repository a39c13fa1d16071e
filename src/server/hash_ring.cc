#include "server/hash_ring.h"

#include <algorithm>

#include "common/hash.h"

namespace square {

namespace {

/**
 * Finalizing mixer (splitmix64's): FNV-1a is stable and fine as a
 * content fingerprint, but its multiply-only structure avalanches
 * low-to-high slowly, so short correlated inputs (a node name plus
 * replica 0..127) land with correlated HIGH bits — and ring position
 * is ordered by exactly those bits.  Without this pass an 8-node ring
 * showed a 3x spread between the busiest and idlest node; with it the
 * per-node share stays within a few percent of ideal.
 */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

uint64_t
vnodePoint(const std::string &node, int replica)
{
    Fnv1a h;
    h.str(node);
    h.i32(replica);
    return mix64(h.value());
}

} // namespace

void
HashRing::add(const std::string &node)
{
    if (contains(node))
        return;
    names_.push_back(node);
    rebuild();
}

bool
HashRing::remove(const std::string &node)
{
    auto it = std::find(names_.begin(), names_.end(), node);
    if (it == names_.end())
        return false;
    names_.erase(it);
    rebuild();
    return true;
}

bool
HashRing::contains(const std::string &node) const
{
    return std::find(names_.begin(), names_.end(), node) !=
           names_.end();
}

void
HashRing::rebuild()
{
    // Rebuilding from scratch keeps removal simple and — crucially —
    // keeps every SURVIVING node's points identical (they depend only
    // on the node's own name), which is what bounds key movement to
    // the affected node's arcs.  Membership changes are rare control-
    // plane events; O(N x vnodes log) is nothing next to a reconnect.
    ring_.clear();
    ring_.reserve(names_.size() * size_t{kVnodes});
    for (uint32_t n = 0; n < names_.size(); ++n) {
        for (int r = 0; r < kVnodes; ++r)
            ring_.push_back(Point{vnodePoint(names_[n], r), n});
    }
    std::sort(ring_.begin(), ring_.end());
}

int
HashRing::ownerIndex(uint64_t key_hash) const
{
    if (ring_.empty())
        return -1;
    // Mix the key too: CacheKey hashes are FNV-combined fingerprints
    // with the same weak-high-bit structure as the raw vnode points.
    const uint64_t at = mix64(key_hash);
    // First point at or clockwise-after the key, wrapping at the top.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), at,
        [](const Point &p, uint64_t h) { return p.at < h; });
    if (it == ring_.end())
        it = ring_.begin();
    return static_cast<int>(it->node);
}

const std::string &
HashRing::owner(uint64_t key_hash) const
{
    static const std::string kEmpty;
    int idx = ownerIndex(key_hash);
    return idx < 0 ? kEmpty : names_[static_cast<size_t>(idx)];
}

} // namespace square
