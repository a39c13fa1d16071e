/**
 * @file
 * The fabric router daemon: the thin tier that turns N single-process
 * shard daemons into one scale-out serving endpoint, and the only
 * sharding scheme the serving tier has.  Each shard daemon
 * (square_served) serves through exactly one CompileService; the
 * router spreads the CacheKey space over them:
 *
 *   client ──► RouterServer ──► shard daemon 0 (square_served)
 *                          └──► shard daemon 1
 *                          └──► ...
 *
 * The router does only cheap work — parse, resolve the workload name
 * (its own ProgramNameCache), compute the content-addressed CacheKey,
 * pick the owning shard on the consistent-hash ring, forward — and
 * never compiles, so one router multiplexes many compile-heavy shards.
 * Key affinity holds across processes because the key is derived
 * from fingerprints that are stable across processes (common/hash.h
 * FNV over content, never pointer identity).
 *
 * Request flow: the client's "id" is rewritten to a router correlation
 * id; the resolved key rides along (protocol.h inter-tier framing) so
 * shard warm hits skip re-resolution; the upstream pool demultiplexes
 * the shard's reply back to the originating connection and restores
 * the client's framing: a forwarded request completes out-of-band
 * through the connection's AsyncReplySink.
 *
 * Administrative commands are answered locally: "ping" (health),
 * "stats" (fanned out to every up shard over short-lived connections
 * and summed, plus the router's own fabric counters), "metrics"
 * (Prometheus text exposition of the router's OWN registries —
 * upstream pool, transport, resolve failures, faults; shard metrics
 * are scraped from the shards directly, each tier exposes itself),
 * and "shutdown" (optionally cascaded to the shards).
 */

#ifndef SQUARE_SERVER_ROUTER_DAEMON_H
#define SQUARE_SERVER_ROUTER_DAEMON_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/epoll_transport.h"
#include "server/upstream.h"
#include "service/program_cache.h"

namespace square {

struct RouterConfig
{
    std::string host = "127.0.0.1";
    uint16_t port = 0; ///< 0 = ephemeral
    /** Shard daemon addresses, "host:port" each. */
    std::vector<std::string> shards;
    /** Event-loop threads for the client-facing epoll transport. */
    int eventThreads = 1;
    /** Upstream pool tunables (ring, health checks, retry hint). */
    UpstreamConfig upstream;
    /** Forward "shutdown" to every shard before acknowledging it. */
    bool cascadeShutdown = false;
    /**
     * Head-sample 1 in N compile requests into traces originated at
     * the router (0 = off).  A sampled request's forwarded framing
     * gains a "trace_id" field, so the owning shard records its spans
     * against the same id; requests that already carry a trace_id are
     * always traced regardless of this knob.
     */
    uint64_t traceSample = 0;
};

class RouterServer
{
  public:
    explicit RouterServer(const RouterConfig &cfg);
    ~RouterServer();

    RouterServer(const RouterServer &) = delete;
    RouterServer &operator=(const RouterServer &) = delete;

    /** Dial the shards and start serving clients. */
    bool start(std::string &error);

    /** Stop the client transport first, then the upstream pool. */
    void stop();

    uint16_t port() const { return transport_.port(); }

    /** True once a client sent {"cmd": "shutdown"}. */
    bool shutdownRequested() const
    {
        return shutdownRequested_.load(std::memory_order_acquire);
    }

    UpstreamStats upstreamStats() const { return pool_->stats(); }

  private:
    void handleLineTo(std::string_view line, std::string &out,
                      bool &close_conn,
                      const std::shared_ptr<AsyncReplySink> &async);

    /** Fan "stats" out to the up shards and render the aggregate. */
    std::string aggregateStats();

    /** The {"cmd": "metrics"} payload (router-local registries). */
    std::string renderMetricsText();

    /** Send one command line to every shard (cascade shutdown). */
    void broadcastCommand(const std::string &line);

    RouterConfig cfg_;
    std::unique_ptr<UpstreamPool> pool_;
    EpollTransport transport_;
    ProgramNameCache programs_;
    /** Router-tier telemetry (obs/metrics.h) + head sampler. */
    obs::Registry metrics_;
    obs::Counter &resolveFailuresC_;
    obs::Sampler traceSampler_;
    std::atomic<bool> shutdownRequested_{false};
};

} // namespace square

#endif // SQUARE_SERVER_ROUTER_DAEMON_H
