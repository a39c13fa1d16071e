/**
 * @file
 * square_served: one shard of the compile service on a TCP port.
 *
 * The network face of the serving tier: square_serve's NDJSON protocol
 * (one JSON request per line, one JSON reply per line; see
 * src/service/protocol.h) over persistent loopback TCP connections
 * multiplexed by one epoll event loop, served by one CompileService with
 * an LRU-bounded result cache.  Cold misses compile on its worker pool
 * and never block the event loop (src/server/server.h).  To shard, run
 * several daemons behind square_router (tools/square_fabric.sh).
 *
 *   square_served --port=7801 --workers=2 &
 *   printf '%s\n' \
 *     '{"id":1,"workload":"ADDER4","policy":"square"}' \
 *     '{"id":2,"workload":"ADDER4","policy":"square"}' \
 *     '{"cmd":"stats"}' '{"cmd":"shutdown"}' \
 *     | square_client --port=7801
 *
 * Flags (beyond the nine every daemon takes — --host, --port,
 * --trace-sample, --trace-log, --faults, --postmortem, --watchdog-ms,
 * --port-file, --quiet — documented once in src/server/daemon.h):
 *   --shards=N         must be 1 (the default); shard with square_router
 *   --workers=N        compile-pool workers (default 1)
 *   --cache-entries=N  LRU bound, results (default unbounded)
 *   --cache-bytes=N    LRU bound, bytes (default unbounded)
 *   --max-pending=N    compile-queue bound; misses beyond it
 *                      are shed with {"status":"overloaded",
 *                      "retry_after_ms":...} (default 0 = admit all);
 *                      priority=batch requests get half of it,
 *                      rounded down but at least one slot
 *                      (AdmissionLimits::kBatchFraction)
 *   --trace-slow-ms=T  always emit a trace for requests slower than
 *                      T ms (0 = off; instruments every request)
 *   --store=PATH       persistent artifact store: replay PATH into the
 *                      result cache before accepting connections (warm
 *                      restart), then append every published result to
 *                      it before replying; the SQUARE_STORE env
 *                      var is the no-flag fallback (inspect/compact
 *                      with tools/square_storetool)
 *   --store-fsync      fsync every appended record before its reply
 *                      (durability over append latency)
 *   --prewarm=PATH     bulk-load a donor shard's log read-only at
 *                      startup (fabric shard pre-warming); keys this
 *                      daemon never sees are simply never looked up
 *
 * The server runs until {"cmd":"shutdown"} arrives on any connection
 * or SIGINT/SIGTERM; either way it drains cleanly (listener closed,
 * every connection shut down and joined) before exiting 0.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.h"
#include "server/daemon.h"
#include "server/server.h"

using namespace square;

int
main(int argc, char **argv)
{
    DaemonFlags daemon;
    ServerConfig cfg;
    std::vector<Flag> flags = daemonFlags(daemon);
    flags.insert(
        flags.end(),
        {intFlag("shards", cfg.shards, 1, 4096),
         intFlag("workers", cfg.workers, 1, 4096),
         uintFlag("cache-entries", cfg.limits.maxEntries),
         uintFlag("cache-bytes", cfg.limits.maxBytes),
         uintFlag("max-pending", cfg.admission.maxPending),
         realFlag("trace-slow-ms", "T", cfg.traceSlowMs, 0,
                  std::numeric_limits<double>::max()),
         textFlag("store", "PATH", cfg.storePath),
         switchFlag("store-fsync", cfg.storeFsync),
         textFlag("prewarm", "PATH", cfg.prewarmPath)});
    if (!parseFlags(argc, argv, flags))
        return 1;
    cfg.host = daemon.host;
    cfg.port = daemon.port;
    cfg.traceSample = daemon.traceSample;

    setLogComponent("shard");
    if (!setUpDaemon("square_served", daemon))
        return 1;
    // Same flag-beats-environment rule as the shared deployment knobs.
    const char *store_env = std::getenv("SQUARE_STORE");
    if (cfg.storePath.empty() && store_env != nullptr)
        cfg.storePath = store_env;

    CompileServer server(cfg);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "square_served: %s\n", error.c_str());
        return 1;
    }
    if (!daemon.quiet) {
        std::fprintf(stderr,
                     "square_served: listening on %s:%u (%d workers; "
                     "cache bound: %zu entries, %zu bytes; 0 = "
                     "unbounded)\n",
                     cfg.host.c_str(), server.port(), cfg.workers,
                     cfg.limits.maxEntries, cfg.limits.maxBytes);
        if (server.store() != nullptr) {
            ServiceStats warm = server.service().stats();
            std::fprintf(
                stderr,
                "square_served: store %s replayed %zu resident "
                "result(s) (%zu bytes)\n",
                cfg.storePath.c_str(), warm.cachedResults,
                warm.cachedBytes);
        }
    }
    if (!runDaemon(
            "square_served", server.port(), daemon,
            [&server] { return server.shutdownRequested(); },
            [&server] { server.stop(); }))
        return 1;

    if (!daemon.quiet) {
        ServiceStats s = server.service().stats();
        std::fprintf(
            stderr,
            "square_served: served %lld requests (%lld hits, %lld "
            "compiles, %lld failures, %lld evictions)\n",
            static_cast<long long>(s.requests),
            static_cast<long long>(s.hits),
            static_cast<long long>(s.compiles),
            static_cast<long long>(s.failures),
            static_cast<long long>(s.evictions));
    }
    return 0;
}
