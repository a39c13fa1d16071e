#include "server/router_daemon.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/client.h"
#include "server/faults.h"
#include "service/cache_key.h"
#include "service/protocol.h"

namespace square {

namespace {

/** Recv deadline for the per-shard admin fan-out connections. */
constexpr int kAdminRecvTimeoutMs = 2000;

int64_t
fieldInt(const JsonRequest &json, std::string_view key)
{
    const std::string *value = json.find(key);
    if (value == nullptr)
        return 0;
    return std::strtoll(value->c_str(), nullptr, 10);
}

/** Fold one shard's stats reply into the running sum. */
void
accumulateStats(const JsonRequest &json, ServiceStats &sum)
{
    sum.requests += fieldInt(json, "requests");
    sum.hits += fieldInt(json, "hits");
    sum.misses += fieldInt(json, "misses");
    sum.compiles += fieldInt(json, "compiles");
    sum.failures += fieldInt(json, "failures");
    sum.evictions += fieldInt(json, "evictions");
    sum.analysisComputes += fieldInt(json, "analysis_computes");
    sum.cachedResults +=
        static_cast<size_t>(fieldInt(json, "cached_results"));
    sum.cachedBytes +=
        static_cast<size_t>(fieldInt(json, "cached_bytes"));
    sum.cachedPrograms +=
        static_cast<size_t>(fieldInt(json, "cached_programs"));
    sum.shed += fieldInt(json, "shed");
    sum.deadlineExpired += fieldInt(json, "deadline_expired");
    sum.pendingCompiles +=
        static_cast<size_t>(fieldInt(json, "pending_compiles"));
    sum.workerDeaths += fieldInt(json, "worker_deaths");
}

} // namespace

RouterServer::RouterServer(const RouterConfig &cfg)
    : cfg_(cfg), transport_(cfg.eventThreads),
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
    obs::Postmortem &pm = obs::Postmortem::instance();
    pm.registerRegistry("router", &metrics_);
    pm.registerRegistry("upstream", &pool_->metricsRegistry());
    pm.registerRegistry("transport", &transport_.metricsRegistry());
    pm.registerRegistry("watchdog",
                        &obs::Watchdog::instance().metricsRegistry());
    return true;
}

void
RouterServer::stop()
{
    obs::Postmortem &pm = obs::Postmortem::instance();
    pm.unregisterRegistry(&metrics_);
    if (pool_ != nullptr)
        pm.unregisterRegistry(&pool_->metricsRegistry());
    // registerRegistry does not dedupe: the watchdog's slot must be
    // released too, or start/stop churn (tests) fills the table.
    pm.unregisterRegistry(&obs::Watchdog::instance().metricsRegistry());
    // Transport first: once its event threads are joined nothing can
    // call forward(), so the pool's teardown flush is the last word on
    // every in-flight request.
    pm.unregisterRegistry(&transport_.metricsRegistry());
    transport_.stop();
    if (pool_ != nullptr)
        pool_->stop();
}

std::string
RouterServer::aggregateStats()
{
    ServiceStats sum;
    int shards_answering = 0;
    for (int i = 0; i < pool_->shardCount(); ++i) {
        if (!pool_->isUp(i))
            continue;
        // Short-lived connection per shard: stats replies carry no id,
        // so they cannot multiplex on the pipelined data connection.
        const std::string &address = pool_->address(i);
        const size_t colon = address.rfind(':');
        LineClient client;
        std::string error;
        if (!client.connect(
                address.substr(0, colon),
                static_cast<uint16_t>(
                    std::strtol(address.c_str() + colon + 1, nullptr,
                                10)),
                error))
            continue;
        client.setRecvTimeoutMs(kAdminRecvTimeoutMs);
        std::string reply;
        if (!client.sendLine("{\"cmd\": \"stats\"}") ||
            !client.recvLine(reply))
            continue;
        JsonRequest parsed;
        if (!parseJsonLine(reply, parsed, error))
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

std::string
RouterServer::renderMetricsText()
{
    // Router-local registries only: each tier exposes itself (a
    // monitoring stack scrapes the shards directly), so the metrics
    // path never blocks an event thread on shard fan-out the way the
    // stats aggregate does.
    const UpstreamStats up = pool_->stats();
    metrics_.gauge("fabric_shards").set(up.shardsTotal);
    metrics_.gauge("shards_up").set(up.shardsUp);
    metrics_.gauge("programs").set(
        static_cast<int64_t>(programs_.size()));
    std::string text;
    obs::renderPrometheus(text, "square_router", metrics_);
    obs::renderPrometheus(text, "square_upstream",
                          pool_->metricsRegistry());
    obs::renderPrometheus(text, "square_transport",
                          transport_.metricsRegistry());
    obs::renderPrometheus(text, "square_watchdog",
                          obs::Watchdog::instance().metricsRegistry());
    FaultInjector::instance().renderMetrics(text);
    obs::renderBuildInfo(text);
    return text;
}

void
RouterServer::broadcastCommand(const std::string &line)
{
    for (int i = 0; i < pool_->shardCount(); ++i) {
        const std::string &address = pool_->address(i);
        const size_t colon = address.rfind(':');
        LineClient client;
        std::string error;
        if (!client.connect(
                address.substr(0, colon),
                static_cast<uint16_t>(
                    std::strtol(address.c_str() + colon + 1, nullptr,
                                10)),
                error))
            continue; // already dead: nothing to tell it
        client.setRecvTimeoutMs(kAdminRecvTimeoutMs);
        std::string reply;
        if (client.sendLine(line))
            client.recvLine(reply); // best-effort acknowledgment
    }
}

void
RouterServer::handleLineTo(std::string_view line, std::string &out,
                           bool &close_conn,
                           const std::shared_ptr<AsyncReplySink> &async)
{
    if (isProtocolNoOp(line))
        return;

    thread_local JsonRequest json;
    std::string error;
    if (!parseJsonLine(line, json, error)) {
        out += formatError(json, error);
        out += '\n';
        return;
    }

    if (json.has("cmd")) {
        const std::string cmd = json.get("cmd");
        if (cmd == "stats") {
            // Admin-path fan-out on the event thread: bounded by the
            // per-shard recv timeout, and stats callers are operators,
            // not the load path.
            out += aggregateStats();
        } else if (cmd == "metrics") {
            out += formatTextReply(json, "metrics",
                                   renderMetricsText());
        } else if (cmd == "ping") {
            out += '{';
            out += replyIdPrefix(json);
            out += "\"ok\": true, \"cmd\": \"ping\"}";
        } else if (cmd == "dump") {
            const int64_t events =
                obs::Postmortem::instance().dump("command");
            if (events < 0) {
                out += formatError(
                    json, "no postmortem file configured");
            } else {
                out += '{';
                out += replyIdPrefix(json);
                out += "\"ok\": true, \"cmd\": \"dump\", "
                       "\"events\": ";
                out += std::to_string(events);
                out += ", \"path\": \"";
                out += obs::Postmortem::instance().path();
                out += "\"}";
            }
        } else if (cmd == "shutdown") {
            if (cfg_.cascadeShutdown)
                broadcastCommand("{\"cmd\": \"shutdown\"}");
            shutdownRequested_.store(true, std::memory_order_release);
            close_conn = true;
            out += "{\"ok\": true, \"cmd\": \"shutdown\"}";
        } else {
            out += formatError(json, "unknown cmd \"" + cmd + "\"");
        }
        out += '\n';
        return;
    }

    // Compile request: do the cheap routing work here (parse, name
    // resolution, key derivation, ring lookup) and forward the rest.
    CompileRequest req;
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
        out += UpstreamPool::formatShardDown(replyIdPrefix(json),
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
