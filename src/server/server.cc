#include "server/server.h"

#include <utility>

#include "common/latch.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "server/faults.h"
#include "service/protocol.h"

namespace square {

namespace {

/**
 * Close out one traced request on the shard tier: record the "write"
 * span (serialization + reply handoff; the kernel send happens later
 * in the transport's corked flush) and emit when the trace is
 * head-sampled or the request crossed the slow threshold.
 */
void
finishShardTrace(const std::shared_ptr<obs::Trace> &trace,
                 const obs::SpanClock &write_t0, double millis,
                 double slow_ms)
{
    trace->addSpan("write", write_t0.wallUs,
                   obs::microsSince(write_t0));
    if (trace->sampled() || (slow_ms > 0 && millis >= slow_ms))
        obs::TraceLog::instance().emit(*trace, "shard");
}

/**
 * The sink handleLineTo() uses when its caller has none: it holds the
 * calling thread until the one deferred reply is posted, turning the
 * async path into a synchronous one without a second code path.
 */
class BlockingSink final : public AsyncReplySink
{
  public:
    void expectReply() override {}

    void
    post(std::string &&bytes) override
    {
        bytes_ = std::move(bytes);
        posted_.arrive();
    }

    std::string
    wait()
    {
        posted_.wait();
        return std::move(bytes_);
    }

  private:
    Latch posted_{1};
    std::string bytes_;
};

} // namespace

CompileServer::CompileServer(const ServerConfig &cfg)
    : service_(cfg.workers, cfg.limits, cfg.admission),
      transport_(cfg.eventThreads), cfg_(cfg),
      traceSampler_(cfg.traceSample)
{
}

CompileServer::~CompileServer() { stop(); }

bool
CompileServer::start(std::string &error)
{
    if (cfg_.shards != 1) {
        error = "shards must be 1: a square_served daemon is one shard; "
                "run several behind square_router to shard";
        return false;
    }

    // Wire the fault-injection probes into the service.  The service
    // layer carries the hooks so it stays free of src/server includes;
    // both probes gate on one relaxed atomic load when faults are off.
    service_.setCompileHook(
        [] { FaultInjector::instance().onCompileStart(); });
    service_.setWorkerDeathHook(
        [] { return FaultInjector::instance().shouldKillWorker(); });

    uint64_t inserted = 0;
    const auto replay = [this, &inserted](StoreRecord &&rec) {
        if (service_.insertReplayed(rec.key, std::move(rec.result),
                                    std::move(rec.tail)))
            ++inserted;
    };
    // Warm restart, strictly before the transport accepts its first
    // connection: replay this server's own log into the result cache
    // (entries beyond CacheLimits evict normally — log order is
    // recency order), truncate any torn tail, and point the service's
    // publish sink at the store's append queue.
    if (!cfg_.storePath.empty()) {
        store_ = std::make_unique<ArtifactStore>();
        ArtifactStore::Options sopts;
        sopts.path = cfg_.storePath;
        sopts.fsyncEachRecord = cfg_.storeFsync;
        if (!store_->open(sopts, replay, error)) {
            store_.reset();
            return false;
        }
        ArtifactStore *store = store_.get();
        service_.setPublishSink(
            [store](const CacheKey &key,
                    const std::shared_ptr<const CompileResult> &r,
                    const std::shared_ptr<const std::string> &t) {
                store->append(key, r, t);
            });
    }
    // Shard pre-warming: bulk-load a donor shard's log read-only.
    // Runs after the own-store replay, so a key present in both keeps
    // its own (more local) copy; duplicates are skipped, not
    // re-appended — content addressing makes over-replay harmless.
    if (!cfg_.prewarmPath.empty()) {
        uint64_t good_bytes = 0, replayed = 0, corrupt = 0;
        inserted = 0; // the store's prewarm counter: donor keys only
        if (!replayStoreFile(cfg_.prewarmPath, replay, good_bytes,
                             replayed, corrupt, error))
            return false;
        if (store_ != nullptr)
            store_->notePrewarm(inserted, corrupt);
        obs::recordEvent(obs::Comp::Store, obs::Ev::StoreReplay,
                         replayed, good_bytes);
    }

    if (!transport_.start(
            cfg_.host, cfg_.port,
            [this](std::string_view line, std::string &out,
                   bool &close_conn,
                   const std::shared_ptr<AsyncReplySink> &async) {
                handleLineTo(line, out, close_conn, async);
            },
            error))
        return false;
    // Postmortem dumps carry a final metrics snapshot; every registry
    // this server owns is registered into it while it is alive.
    obs::Postmortem &pm = obs::Postmortem::instance();
    pm.registerRegistry("service", &service_.metricsRegistry());
    pm.registerRegistry("transport", &transport_.metricsRegistry());
    pm.registerRegistry("watchdog",
                        &obs::Watchdog::instance().metricsRegistry());
    if (store_ != nullptr)
        pm.registerRegistry("store", &store_->metricsRegistry());
    return true;
}

void
CompileServer::stop()
{
    obs::Postmortem &pm = obs::Postmortem::instance();
    pm.unregisterRegistry(&service_.metricsRegistry());
    // registerRegistry does not dedupe: the watchdog's slot must be
    // released too, or start/stop churn (tests) fills the table.
    pm.unregisterRegistry(&obs::Watchdog::instance().metricsRegistry());
    pm.unregisterRegistry(&transport_.metricsRegistry());
    transport_.stop();
    if (store_ != nullptr) {
        pm.unregisterRegistry(&store_->metricsRegistry());
        // Drain the append queue before the fd closes: a clean
        // shutdown (SIGTERM, {"cmd": "shutdown"}) persists every
        // publish it acknowledged.
        store_->close();
    }
}

void
CompileServer::handleLineTo(std::string_view line, std::string &out,
                            bool &close_conn,
                            const std::shared_ptr<AsyncReplySink> &async)
{
    if (isProtocolNoOp(line))
        return;

    // Reused per transport thread: request parsing amortizes to zero
    // allocations on the warm path (the fields vector keeps its
    // capacity; the short key/value strings are SSO).
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
            out += formatStats(service_.stats());
        } else if (cmd == "metrics") {
            out += formatTextReply(json, "metrics",
                                   renderMetricsText());
        } else if (cmd == "ping") {
            // Liveness probe (the fabric router's health checks): a
            // fixed reply, no service-layer work, id echoed so pings
            // multiplex over a pipelined data connection.
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
            shutdownRequested_.store(true);
            close_conn = true;
            out += "{\"ok\": true, \"cmd\": \"shutdown\"}";
        } else {
            out += formatError(json, "unknown cmd \"" + cmd + "\"");
        }
        out += '\n';
        return;
    }

    // Head-based trace decision, ahead of the fast path so a traced
    // request takes the fully instrumented route (the fast path stays
    // span-free — and therefore zero-overhead — for everyone else).
    // The id can arrive with the request ("trace_id", possibly via the
    // router's forwarded framing) or from this server's own sampler;
    // with traceSlowMs set, every remaining request is staged into an
    // unsampled trace that only emits if it turns out slow.
    std::shared_ptr<obs::Trace> trace;
    {
        const std::string *tid = json.find("trace_id");
        uint64_t trace_id = 0;
        if (tid != nullptr && obs::Trace::parseId(*tid, trace_id))
            trace = std::make_shared<obs::Trace>(trace_id, true);
        else if (traceSampler_.sample())
            trace =
                std::make_shared<obs::Trace>(obs::genTraceId(), true);
        else if (cfg_.traceSlowMs > 0)
            trace =
                std::make_shared<obs::Trace>(obs::genTraceId(), false);
    }
    // Traced requests only: anchors the trace id in this shard's ring
    // so a postmortem can be correlated with the request's spans.
    if (trace != nullptr && trace->sampled())
        obs::recordEvent(obs::Comp::Service, obs::Ev::Request, 0, 0,
                         trace->id());

    // Router-forwarded fast path: a "key" field carries the CacheKey
    // the router already resolved.  A published hit skips resolution
    // entirely (no machine parse, no config canonicalization, no
    // name-cache lookup); anything else — miss, in-flight, failed,
    // malformed key — falls through to the full path below, whose own
    // computed key always wins.
    if (const std::string *key_hex =
            trace == nullptr ? json.find("key") : nullptr) {
        CacheKey fwd_key;
        if (parseCacheKeyHex(*key_hex, fwd_key)) {
            ServiceReply reply;
            if (service_.tryServePublished(requestLabel(json), fwd_key,
                                           reply)) {
                formatReplyLineTo(out, replyIdPrefix(json), reply);
                out += '\n';
                return;
            }
        }
    }

    CompileRequest req;
    if (!buildRequest(json, req, error)) {
        out += formatError(json, error);
        out += '\n';
        return;
    }
    if (trace != nullptr) {
        req.traceId = trace->id();
        req.trace = trace;
    }

    // `json` is thread-local and will be reused for the next line on
    // this loop; capture the only piece the completion needs — the id
    // echo — by value before going asynchronous.
    std::string id_prefix = replyIdPrefix(json);
    std::shared_ptr<BlockingSink> blocking;
    std::shared_ptr<AsyncReplySink> sink = async;
    if (sink == nullptr) {
        blocking = std::make_shared<BlockingSink>();
        sink = blocking;
    }
    // The service resolves (its own name cache) and decides: sync for
    // a hit, a shed, or a resolve failure, async for a real compile.
    ServiceReply reply;
    const double slow_ms = cfg_.traceSlowMs;
    const bool sync = service_.submitAsync(
        req, reply,
        [sink, prefix = id_prefix, trace, slow_ms](ServiceReply &&r) {
            obs::SpanClock write_t0;
            if (trace != nullptr)
                write_t0 = obs::SpanClock::now();
            std::string framed;
            formatReplyLineTo(framed, prefix, r);
            framed += '\n';
            sink->post(std::move(framed));
            if (trace != nullptr)
                finishShardTrace(trace, write_t0, r.millis, slow_ms);
        });
    if (!sync) {
        sink->expectReply();
        if (blocking != nullptr)
            out += blocking->wait();
        return;
    }
    obs::SpanClock write_t0;
    if (trace != nullptr)
        write_t0 = obs::SpanClock::now();
    formatReplyLineTo(out, id_prefix, reply);
    out += '\n';
    if (trace != nullptr)
        finishShardTrace(trace, write_t0, reply.millis, slow_ms);
}

std::string
CompileServer::renderMetricsText()
{
    service_.syncMetricsGauges();
    std::string text;
    obs::renderPrometheus(text, "square_service",
                          service_.metricsRegistry());
    obs::renderPrometheus(text, "square_transport",
                          transport_.metricsRegistry());
    obs::renderPrometheus(text, "square_watchdog",
                          obs::Watchdog::instance().metricsRegistry());
    if (store_ != nullptr)
        obs::renderPrometheus(text, "square_store",
                              store_->metricsRegistry());
    FaultInjector::instance().renderMetrics(text);
    obs::renderBuildInfo(text);
    return text;
}

std::string
CompileServer::handleLine(const std::string &line, bool &close_conn)
{
    std::string out;
    handleLineTo(line, out, close_conn, nullptr);
    if (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

} // namespace square
