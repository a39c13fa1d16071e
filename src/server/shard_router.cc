#include "server/shard_router.h"

#include <exception>
#include <stdexcept>

namespace square {

ShardRouter::ShardRouter(int shards, int workers_per_shard,
                         CacheLimits limits, AdmissionLimits admission)
{
    if (shards < 1)
        throw std::invalid_argument("ShardRouter needs >= 1 shard");
    if (workers_per_shard < 1)
        throw std::invalid_argument(
            "ShardRouter needs >= 1 worker per shard");
    shards_.reserve(static_cast<size_t>(shards));
    for (int i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<CompileService>(
            workers_per_shard, limits, admission));
}

bool
ShardRouter::resolve(const CompileRequest &req,
                     std::shared_ptr<const Program> &program,
                     uint64_t &program_fp, CacheKey &key,
                     std::string &error)
{
    try {
        if (req.program) {
            program = req.program;
            program_fp = req.program->fingerprint();
        } else {
            auto [shared, shared_fp] = programs_.get(req.workload);
            program = std::move(shared);
            program_fp = shared_fp;
        }
        key = makeCacheKey(program_fp, req.machine, req.cfg);
        return true;
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }
}

int
ShardRouter::shardFor(const CacheKey &key) const
{
    return static_cast<int>(CacheKeyHash{}(key) % shards_.size());
}

RouterStats
ShardRouter::stats() const
{
    RouterStats s;
    s.shards.reserve(shards_.size());
    for (const std::unique_ptr<CompileService> &shard : shards_) {
        s.shards.push_back(shard->stats());
        s.global += s.shards.back();
    }
    s.resolveFailures =
        resolveFailures_.load(std::memory_order_relaxed);
    s.routerPrograms = programs_.size();
    return s;
}

} // namespace square
