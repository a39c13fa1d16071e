/**
 * @file
 * The networked compile server: EpollTransport x CompileService x the
 * NDJSON protocol.
 *
 * CompileServer binds a loopback (or configured) address, frames the
 * existing src/service/protocol.h request/reply grammar over
 * persistent TCP connections, and serves every compile request through
 * one CompileService.  One daemon is one shard: the fabric router's
 * consistent-hash ring (router_daemon.h) is the only sharding scheme.
 * Every request takes one path, CompileService::submitAsync — a warm
 * hit, a shed, or a resolve failure replies at once, a miss replies
 * when the worker pool publishes it.  On top of the pipe protocol it
 * adds these commands:
 *
 *   {"cmd": "stats"}     the service counters (the square_serve line);
 *   {"cmd": "metrics"}   Prometheus text exposition (obs/metrics.h):
 *                        the service, transport, watchdog, and store
 *                        registries plus the fault-injection
 *                        counters, \n-escaped into the reply's "text"
 *                        field;
 *   {"cmd": "ping"}      a fixed liveness reply;
 *   {"cmd": "dump"}      write a flight-recorder postmortem block;
 *   {"cmd": "shutdown"}  acknowledge, then ask the owning thread to
 *                        stop the server.
 *
 * Per-request tracing (obs/trace.h): a request carrying a "trace_id"
 * — or picked by the server's own traceSample sampler — takes the
 * fully instrumented path and has its spans (resolve, admission,
 * queue, compile phases, serialize, write) emitted to the process's
 * trace log tagged comp="shard".  With traceSlowMs > 0, every request
 * is additionally staged into an unsampled trace that is emitted only
 * when it ran longer than the threshold.
 *
 * Shutdown discipline: event-loop threads must not join themselves, so
 * an in-protocol shutdown only *requests* it — the thread that owns
 * the server (square_served's main, a test, the bench harness)
 * observes shutdownRequested() and calls stop().  stop() closes the
 * listener and every connection and joins all transport threads.
 *
 * Malformed input never kills a connection prematurely: unparseable
 * lines, unknown fields, bad machine specs, and unknown workloads all
 * get {"ok": false, "error": ...} replies, and a truncated trailing
 * line (client died mid-request) is answered with a structured parse
 * error before the connection closes.
 */

#ifndef SQUARE_SERVER_SERVER_H
#define SQUARE_SERVER_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "server/epoll_transport.h"
#include "service/artifact_store.h"
#include "service/service.h"

namespace square {

/** Configuration for one CompileServer. */
struct ServerConfig
{
    std::string host = "127.0.0.1";
    /** 0 picks an ephemeral port (read it back with port()). */
    uint16_t port = 0;
    /**
     * Must be 1 (start() rejects anything else): a daemon is one
     * shard, and square_router shards across daemons.
     */
    int shards = 1;
    /** Compile-pool workers. */
    int workers = 1;
    /** Event-loop threads for the epoll transport. */
    int eventThreads = 1;
    /** LRU result-cache bound (zero = unbounded). */
    CacheLimits limits;
    /** Compile-queue bound (zero maxPending = admit all). */
    AdmissionLimits admission;
    /** Head-sample 1 in N requests into traces (0 = off). */
    uint64_t traceSample = 0;
    /**
     * Persistent artifact store (service/artifact_store.h).  When
     * set, the log at this path is mmap'd and replayed into the result
     * cache before the transport accepts its first connection, and
     * every successful publish appends asynchronously — a restart
     * starts warm instead of re-paying the working set's compiles.
     * "" = no persistence (the pre-PR-10 behaviour).
     */
    std::string storePath;
    /**
     * A donor shard's log to bulk-load at startup (read-only, never
     * truncated, never appended to): the fabric's shard pre-warming.
     * Keys outside this shard's ring slice are simply never looked
     * up — content addressing makes over-replay harmless.
     */
    std::string prewarmPath;
    /** fsync the store after every appended record. */
    bool storeFsync = false;
    /**
     * Emit a trace for any request slower than this many ms (0 = off).
     * Costs the instrumented path for every request — a diagnosis
     * mode, not a default.
     */
    double traceSlowMs = 0;
};

class CompileServer
{
  public:
    explicit CompileServer(const ServerConfig &cfg);
    ~CompileServer();

    /**
     * Bind and start serving; false with a message on failure
     * (including cfg.shards != 1).
     */
    bool start(std::string &error);

    /** The actual bound port (after start()). */
    uint16_t port() const { return transport_.port(); }

    /** Stop the transport (not callable from an event-loop thread). */
    void stop();

    /** True once a {"cmd":"shutdown"} request was served. */
    bool shutdownRequested() const { return shutdownRequested_.load(); }

    CompileService &service() { return service_; }
    /** The artifact store (null without cfg.storePath). */
    ArtifactStore *store() { return store_.get(); }

    /**
     * Serve one protocol line, appending the framed reply (with its
     * newline) to @p out — nothing for protocol no-ops.  This is the
     * transport's LineHandler: warm hits append the preserialized
     * reply bytes straight into the connection's write buffer.  A miss
     * appends nothing now — the reply arrives through the @p async
     * sink once a pool worker finishes the compile — while warm hits,
     * sheds, and errors reply synchronously.  A null @p async (callers
     * without an event loop: tests, the layer bench) makes every reply
     * synchronous: the call blocks until the miss publishes.
     */
    void handleLineTo(std::string_view line, std::string &out,
                      bool &close_conn,
                      const std::shared_ptr<AsyncReplySink> &async);

    /**
     * Serve one protocol line and return the reply line (without the
     * newline): handleLineTo() with a null sink, so the protocol can
     * be exercised without sockets (tests).
     */
    std::string handleLine(const std::string &line, bool &close_conn);

  private:
    /** The {"cmd": "metrics"} payload (unescaped Prometheus text). */
    std::string renderMetricsText();

    /** Declared before service_: publish sinks (worker threads still
        draining at teardown) append into it, so it must die last. */
    std::unique_ptr<ArtifactStore> store_;
    CompileService service_;
    EpollTransport transport_;
    ServerConfig cfg_;
    /** Server-side head sampler (cfg_.traceSample). */
    obs::Sampler traceSampler_;
    std::atomic<bool> shutdownRequested_{false};
};

} // namespace square

#endif // SQUARE_SERVER_SERVER_H
