/**
 * @file
 * square_router: the shard-fabric router daemon on a TCP port.
 *
 * Speaks the same NDJSON protocol as square_served, but owns no
 * compile service: every compile request is consistent-hash routed by
 * its CacheKey to one of the shard daemons named by --shard flags and
 * the reply is multiplexed back (src/server/router_daemon.h).  Clients
 * cannot tell the tiers apart except by the extra fabric fields in
 * the stats reply and the {"status": "shard_down"} failover replies.
 *
 *   square_served --port=7811 --quiet &
 *   square_served --port=7812 --quiet &
 *   square_router --port=7801 \
 *       --shard=127.0.0.1:7811 --shard=127.0.0.1:7812 &
 *   printf '%s\n' '{"id":1,"workload":"ADDER4"}' '{"cmd":"stats"}' \
 *     | square_client --port=7801
 *
 * (tools/square_fabric.sh scripts exactly this arrangement.)
 *
 * Flags (beyond the nine every daemon takes — --host, --port,
 * --trace-sample, --trace-log, --faults, --postmortem, --watchdog-ms,
 * --port-file, --quiet — documented once in
 * src/server/daemon.h; on the router, --trace-sample samples compile
 * requests and the id rides the forwarded framing, so the shard traces
 * the same request; the ring places every shard at HashRing::kVnodes
 * = 128 points):
 *   --shard=HOST:PORT     one shard daemon address (repeatable; at
 *                         least one required, no duplicates)
 *   --ping-interval-ms=N  health-check cadence (default 200)
 *   --failure-threshold=N consecutive unanswered pings before an up
 *                         shard is ejected (default 3)
 *   --retry-after-ms=N    retry hint in shard_down replies (default
 *                         250)
 *   --cascade-shutdown    forward {"cmd":"shutdown"} to every shard
 *                         before acknowledging it
 *
 * Runs until {"cmd":"shutdown"} or SIGINT/SIGTERM; exits 0 after a
 * clean drain (transport stopped, upstream pool flushed and joined).
 */

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "server/daemon.h"
#include "server/hash_ring.h"
#include "server/router_daemon.h"
#include "service/protocol.h"

using namespace square;

int
main(int argc, char **argv)
{
    DaemonFlags daemon;
    RouterConfig cfg;
    std::vector<Flag> flags = daemonFlags(daemon);
    flags.insert(
        flags.end(),
        {listFlag("shard", "HOST:PORT", cfg.shards),
         intFlag("ping-interval-ms", cfg.upstream.pingIntervalMs, 1,
                 3600000),
         intFlag("failure-threshold", cfg.upstream.failureThreshold, 1,
                 1000),
         intFlag("retry-after-ms", cfg.upstream.retryAfterMs, 0,
                 kMaxRetryAfterMs),
         switchFlag("cascade-shutdown", cfg.cascadeShutdown)});
    if (!parseFlags(argc, argv, flags))
        return 1;
    if (cfg.shards.empty()) {
        std::fprintf(stderr,
                     "square_router: at least one --shard=HOST:PORT "
                     "is required\n");
        return 1;
    }
    cfg.host = daemon.host;
    cfg.port = daemon.port;
    cfg.traceSample = daemon.traceSample;

    setLogComponent("router");
    if (!setUpDaemon("square_router", daemon))
        return 1;

    std::string error;
    RouterServer server(cfg);
    if (!server.start(error)) {
        std::fprintf(stderr, "square_router: %s\n", error.c_str());
        return 1;
    }
    if (!daemon.quiet) {
        std::fprintf(stderr,
                     "square_router: listening on %s:%u, routing over "
                     "%zu shard(s) (%d vnodes each)\n",
                     cfg.host.c_str(), server.port(),
                     cfg.shards.size(), HashRing::kVnodes);
    }
    if (!runDaemon(
            "square_router", server.port(), daemon,
            [&server] { return server.shutdownRequested(); },
            [&server] { server.stop(); }))
        return 1;

    if (!daemon.quiet) {
        const UpstreamStats s = server.upstreamStats();
        std::fprintf(stderr,
                     "square_router: forwarded %lld requests "
                     "(%lld replies, %lld shard_down, %lld "
                     "reconnects) across %d shard(s)\n",
                     static_cast<long long>(s.forwarded),
                     static_cast<long long>(s.replies),
                     static_cast<long long>(s.shardDownReplies),
                     static_cast<long long>(s.reconnects),
                     s.shardsTotal);
    }
    return 0;
}
