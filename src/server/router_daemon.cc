#include "server/router_daemon.h"

#include <cstdio>
#include <exception>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/net.h"
#include "service/cache_key.h"
#include "service/protocol.h"

namespace square {

namespace {

/** Recv deadline for the per-shard admin fan-out connections. */
constexpr int kAdminRecvTimeoutMs = 2000;

} // namespace

RouterServer::RouterServer(const RouterConfig &cfg)
    : cfg_(cfg),
      resolveFailuresC_(metrics_.counter("resolve_failures")),
      traceSampler_(cfg.traceSample)
{
    pool_ = std::make_unique<UpstreamPool>(cfg_.shards, cfg_.upstream);
}

RouterServer::~RouterServer() { stop(); }

bool
RouterServer::start(std::string &error)
{
    if (!pool_->start(error))
        return false;
    if (!transport_.start(
            cfg_.host, cfg_.port,
            [this](std::string_view line, std::string &out,
                   bool &close_conn,
                   const std::shared_ptr<AsyncReplySink> &async) {
                handleLineTo(line, out, close_conn, async);
            },
            error))
        return false;
    registerPostmortem(registries());
    return true;
}

void
RouterServer::stop()
{
    unregisterPostmortem(registries());
    // Transport first: once its event threads are joined nothing can
    // call forward(), so the pool's teardown flush is the last word on
    // every in-flight request.
    transport_.stop();
    pool_->stop();
}

std::vector<NamedRegistry>
RouterServer::registries() const
{
    return {{"router", &metrics_},
            {"upstream", &pool_->metricsRegistry()},
            {"transport", &transport_.metricsRegistry()},
            {"watchdog", &obs::Watchdog::instance().metricsRegistry()}};
}

std::string
RouterServer::askShard(int shard, const std::string &line)
{
    std::string host, error, reply;
    uint16_t port = 0;
    LineClient client;
    if (!net::splitHostPort(pool_->address(shard), host, port) ||
        !client.connect(host, port, error))
        return reply;
    client.setRecvTimeoutMs(kAdminRecvTimeoutMs);
    if (!client.sendLine(line) || !client.recvLine(reply))
        reply.clear();
    return reply;
}

std::string
RouterServer::aggregateStats()
{
    ServiceStats sum;
    int shards_answering = 0;
    for (int i = 0; i < pool_->shardCount(); ++i) {
        if (!pool_->isUp(i))
            continue;
        JsonRequest parsed;
        std::string error;
        if (!parseJsonLine(askShard(i, "{\"cmd\": \"stats\"}"), parsed,
                           error))
            continue;
        accumulateStats(parsed, sum);
        ++shards_answering;
    }
    // The aggregate keeps the service-stats shape (scripts parse the
    // same fields against either tier) and appends the fabric view.
    sum.cachedPrograms += programs_.size();
    std::string line = formatStats(sum);
    const UpstreamStats up = pool_->stats();
    char extra[256];
    std::snprintf(
        extra, sizeof extra,
        ", \"fabric_shards\": %d, \"shards_up\": %d, "
        "\"shards_answering\": %d, \"forwarded\": %lld, "
        "\"shard_down_replies\": %lld, \"reconnects\": %lld, "
        "\"resolve_failures\": %lld, \"router_programs\": %zu}",
        up.shardsTotal, up.shardsUp, shards_answering,
        static_cast<long long>(up.forwarded),
        static_cast<long long>(up.shardDownReplies),
        static_cast<long long>(up.reconnects),
        static_cast<long long>(resolveFailuresC_.value()),
        programs_.size());
    line.pop_back(); // replace the closing '}' with the extension
    return line + extra;
}

void
RouterServer::handleLineTo(std::string_view line, std::string &out,
                           bool &close_conn,
                           const std::shared_ptr<AsyncReplySink> &async)
{
    thread_local JsonRequest json;
    // "stats" fans out on the event thread, bounded by the per-shard
    // recv timeout (stats callers are operators, not the load path).
    // "metrics" is router-local: each tier exposes itself, and a
    // monitoring stack scrapes the shards directly.
    if (answerNonCompile(
            line, json, out, close_conn, [this] { return aggregateStats(); },
            [this] {
                const UpstreamStats up = pool_->stats();
                metrics_.gauge("fabric_shards").set(up.shardsTotal);
                metrics_.gauge("shards_up").set(up.shardsUp);
                metrics_.gauge("programs").set(
                    static_cast<int64_t>(programs_.size()));
                return renderDaemonMetrics(registries());
            },
            [this] {
                if (cfg_.cascadeShutdown)
                    for (int i = 0; i < pool_->shardCount(); ++i)
                        askShard(i, "{\"cmd\": \"shutdown\"}");
                shutdownRequested_.store(true, std::memory_order_release);
            }))
        return;

    // Compile request: do the cheap routing work here (parse, name
    // resolution, key derivation, ring lookup) and forward the rest.
    CompileRequest req;
    std::string error;
    if (!buildRequest(json, req, error)) {
        out += formatError(json, error);
        out += '\n';
        return;
    }
    // Trace decision: honor an incoming trace_id, or originate one
    // from the router's own head sampler.  The router records two
    // spans — "resolve" (name + key + ring) here, "forward" (send to
    // demultiplexed reply) in the upstream pool, which also emits the
    // trace as the request's last router touch point.
    std::shared_ptr<obs::Trace> trace;
    if (req.traceId != 0)
        trace = std::make_shared<obs::Trace>(req.traceId, true);
    else if (traceSampler_.sample())
        trace = std::make_shared<obs::Trace>(obs::genTraceId(), true);
    obs::SpanClock resolve_t0;
    if (trace != nullptr)
        resolve_t0 = obs::SpanClock::now();
    uint64_t program_fp = 0;
    try {
        program_fp = programs_.get(req.workload).second;
    } catch (const std::exception &e) {
        resolveFailuresC_.add(1);
        out += formatError(json, e.what());
        out += '\n';
        return;
    }
    const CacheKey key =
        makeCacheKey(program_fp, req.machine, req.cfg);
    const int shard = pool_->ownerOf(key);
    if (shard < 0) {
        // Whole fabric down: same structured shape as a single dead
        // shard, so clients need one retry discipline.
        formatRefusalTo(out, replyIdPrefix(json), "shard_down",
                        pool_->retryAfterMs());
        out += '\n';
        return;
    }
    if (trace != nullptr)
        trace->addSpan("resolve", resolve_t0.wallUs,
                       obs::microsSince(resolve_t0));
    const uint64_t seq = pool_->allocSeq();
    std::string framed;
    // A router-originated trace id is spliced into the forwarded
    // framing so the shard traces the same request (an incoming
    // trace_id is already among the copied fields).
    formatForwardedRequestTo(framed, json, seq, key,
                             trace != nullptr ? trace->id() : 0);
    if (trace != nullptr)
        obs::recordEvent(obs::Comp::Router, obs::Ev::Forward,
                         static_cast<uint64_t>(shard), seq,
                         trace->id());
    async->expectReply();
    pool_->forward(shard, seq, async, replyIdPrefix(json),
                   std::move(framed), trace);
}

} // namespace square
