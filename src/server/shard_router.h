/**
 * @file
 * Key-affine sharding over N CompileService instances.
 *
 * A long-running server wants more than one service shard: each shard
 * has its own mutex, result cache, and worker pool, so unrelated
 * requests stop contending on one lock.  Routing is by CacheKey hash —
 * the *content address* of the compilation, not the connection — which
 * gives key affinity: a given program x machine x config always lands
 * on the same shard, so
 *
 *  - in-flight deduplication still collapses concurrent duplicates to
 *    one compilation (they meet on the owning shard),
 *  - cache hits stay local (no cross-shard lookup, no cross-shard
 *    locks on the hot path), and
 *  - each shard's LRU bound covers a disjoint key range (the global
 *    resident bound is the sum of the per-shard bounds).
 *
 * The router resolves workload names to shared immutable Programs
 * *once*, in its own name cache, and hands the resolved program to the
 * shard — N shards share one Program (and thus one ProgramAnalysis per
 * shard at most) instead of building N copies.
 *
 * Requests that fail before routing (unknown workload, program build
 * failure) are answered by the caller (CompileServer) and counted in
 * RouterStats::resolveFailures; everything else is shard-owned, so the
 * per-shard ServiceStats sum exactly to the global view.
 */

#ifndef SQUARE_SERVER_SHARD_ROUTER_H
#define SQUARE_SERVER_SHARD_ROUTER_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "service/program_cache.h"
#include "service/service.h"

namespace square {

/** Global + per-shard service counters. */
struct RouterStats
{
    /** Element-wise sum of the shard stats (and nothing else, so the
        per-shard rows always sum exactly to this view). */
    ServiceStats global;
    std::vector<ServiceStats> shards;
    /** Requests rejected before reaching any shard. */
    int64_t resolveFailures = 0;
    /** Workload programs resident in the router's own name cache. */
    size_t routerPrograms = 0;
};

class ShardRouter
{
  public:
    /**
     * @param shards            number of CompileService shards (>= 1).
     * @param workers_per_shard pool workers per shard.
     * @param limits            per-shard LRU cache bound.
     * @param admission         per-shard compile-queue bound.
     */
    ShardRouter(int shards, int workers_per_shard,
                CacheLimits limits = {}, AdmissionLimits admission = {});

    /**
     * Resolve a request to its shared program, program fingerprint,
     * and cache key — the routing step ahead of the key-affine shard's
     * CompileService::submitPreparedAsync.  The fingerprint comes from
     * the name cache — never a per-request content hash.  Returns
     * false with a message on failure.
     */
    bool resolve(const CompileRequest &req,
                 std::shared_ptr<const Program> &program,
                 uint64_t &program_fp, CacheKey &key,
                 std::string &error);

    /** The shard @p key routes to (stable for the router's lifetime). */
    int shardFor(const CacheKey &key) const;

    /** Count a caller-side resolve() failure. */
    void noteResolveFailure()
    {
        resolveFailures_.fetch_add(1, std::memory_order_relaxed);
    }

    int shards() const { return static_cast<int>(shards_.size()); }

    CompileService &shard(int i) { return *shards_[static_cast<size_t>(i)]; }

    RouterStats stats() const;

  private:
    std::vector<std::unique_ptr<CompileService>> shards_;
    /** Workload names resolved once, shared across every shard (the
        shared implementation of service/program_cache.h: steady-state
        lookups take a shared lock, so resolution does not serialize
        concurrent connections). */
    ProgramNameCache programs_;
    std::atomic<int64_t> resolveFailures_{0};
};

} // namespace square

#endif // SQUARE_SERVER_SHARD_ROUTER_H
