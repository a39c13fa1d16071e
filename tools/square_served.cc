/**
 * @file
 * square_served: one shard of the compile service on a TCP port.
 *
 * The network face of the serving tier: square_serve's NDJSON protocol
 * (one JSON request per line, one JSON reply per line; see
 * src/service/protocol.h) over persistent loopback TCP connections
 * multiplexed by epoll event loops, served by one CompileService with
 * an LRU-bounded result cache.  Cold misses compile on its worker pool
 * and never block an event loop (src/server/server.h).  To shard, run
 * several daemons behind square_router (tools/square_fabric.sh).
 *
 *   square_served --port=7801 --workers=2 &
 *   printf '%s\n' \
 *     '{"id":1,"workload":"ADDER4","policy":"square"}' \
 *     '{"id":2,"workload":"ADDER4","policy":"square"}' \
 *     '{"cmd":"stats"}' '{"cmd":"shutdown"}' \
 *     | square_client --port=7801
 *
 * Flags:
 *   --port=N           listen port (default 0 = ephemeral; the bound
 *                      port is announced on stderr and in --port-file)
 *   --host=A           IPv4 bind address (default 127.0.0.1)
 *   --shards=N         must be 1 (the default); shard with square_router
 *   --workers=N        compile-pool workers (default 1)
 *   --event-threads=N  epoll event-loop threads (default 1)
 *   --cache-entries=N  LRU bound, results (default unbounded)
 *   --cache-bytes=N    LRU bound, bytes (default unbounded)
 *   --max-pending=N    compile-queue bound; misses beyond it
 *                      are shed with {"status":"overloaded",
 *                      "retry_after_ms":...} (default 0 = admit all)
 *   --batch-fraction=F fraction of --max-pending admitted to
 *                      priority=batch requests (default 0.5)
 *   --trace-sample=N   head-sample 1 in N requests into traces (see
 *                      src/obs/trace.h; 0 = off, the default)
 *   --trace-slow-ms=T  always emit a trace for requests slower than
 *                      T ms (0 = off; instruments every request)
 *   --trace-log=PATH   append NDJSON span lines to PATH (overrides
 *                      the SQUARE_TRACE_LOG environment variable)
 *   --faults=SPEC      enable fault injection, e.g.
 *                      "seed=7,compile_delay_ms=30,worker_death_rate=
 *                      0.05" (see src/server/faults.h for the grammar;
 *                      the SQUARE_FAULTS env var is honoured too)
 *   --postmortem=PATH  append flight-recorder postmortem dumps (crash,
 *                      watchdog stall, {"cmd":"dump"}) to PATH and
 *                      install the SIGSEGV/SIGABRT/SIGBUS crash
 *                      handler; the SQUARE_POSTMORTEM env var is the
 *                      no-flag fallback (read with tools/square_blackbox)
 *   --store=PATH       persistent artifact store: replay PATH into the
 *                      result cache before accepting connections (warm
 *                      restart), then append every published result to
 *                      it off the serving path; the SQUARE_STORE env
 *                      var is the no-flag fallback (inspect/compact
 *                      with tools/square_storetool)
 *   --store-fsync      fsync the store after every appended record
 *                      (durability over append latency)
 *   --prewarm=PATH     bulk-load a donor shard's log read-only at
 *                      startup (fabric shard pre-warming); keys this
 *                      daemon never sees are simply never looked up
 *   --watchdog-ms=N    stall-watchdog threshold in ms (default 5000;
 *                      0 disables the watchdog entirely)
 *   --port-file=PATH   write the bound port (decimal, newline) once
 *                      listening — for scripts that pass --port=0
 *   --quiet            suppress the stderr banner and final counters
 *
 * The server runs until {"cmd":"shutdown"} arrives on any connection
 * or SIGINT/SIGTERM; either way it drains cleanly (listener closed,
 * every connection shut down and joined) before exiting 0.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/faults.h"
#include "server/server.h"

using namespace square;

namespace {

std::atomic<bool> g_signal{false};

void
onSignal(int)
{
    g_signal.store(true);
}

bool
parseSize(const char *text, size_t &out)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        return false;
    out = static_cast<size_t>(v);
    return true;
}

/** Strict bounded integer parse (no atoi: trailing garbage rejects). */
bool
parseInt(const char *text, long min, long max, int &out)
{
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < min || v > max)
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
parseFraction(const char *text, double &out)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    std::string port_file;
    std::string postmortem_path;
    int watchdog_ms = 5000;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        size_t size_value = 0;
        int int_value = 0;
        if (std::strncmp(arg, "--port=", 7) == 0) {
            if (!parseInt(arg + 7, 0, 65535, int_value)) {
                std::fprintf(stderr, "bad --port value\n");
                return 1;
            }
            cfg.port = static_cast<uint16_t>(int_value);
        } else if (std::strncmp(arg, "--host=", 7) == 0) {
            cfg.host = arg + 7;
        } else if (std::strncmp(arg, "--shards=", 9) == 0) {
            if (!parseInt(arg + 9, 1, 4096, int_value)) {
                std::fprintf(stderr, "bad --shards value\n");
                return 1;
            }
            cfg.shards = int_value;
        } else if (std::strncmp(arg, "--workers=", 10) == 0) {
            if (!parseInt(arg + 10, 1, 4096, int_value)) {
                std::fprintf(stderr, "bad --workers value\n");
                return 1;
            }
            cfg.workers = int_value;
        } else if (std::strncmp(arg, "--event-threads=", 16) == 0) {
            if (!parseInt(arg + 16, 1, 256, int_value)) {
                std::fprintf(stderr, "bad --event-threads value\n");
                return 1;
            }
            cfg.eventThreads = int_value;
        } else if (std::strncmp(arg, "--cache-entries=", 16) == 0 &&
                   parseSize(arg + 16, size_value)) {
            cfg.limits.maxEntries = size_value;
        } else if (std::strncmp(arg, "--cache-bytes=", 14) == 0 &&
                   parseSize(arg + 14, size_value)) {
            cfg.limits.maxBytes = size_value;
        } else if (std::strncmp(arg, "--max-pending=", 14) == 0 &&
                   parseSize(arg + 14, size_value)) {
            cfg.admission.maxPending = size_value;
        } else if (std::strncmp(arg, "--batch-fraction=", 17) == 0) {
            if (!parseFraction(arg + 17, cfg.admission.batchFraction)) {
                std::fprintf(stderr, "bad --batch-fraction value\n");
                return 1;
            }
        } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
            if (!parseSize(arg + 15, size_value)) {
                std::fprintf(stderr, "bad --trace-sample value\n");
                return 1;
            }
            cfg.traceSample = size_value;
        } else if (std::strncmp(arg, "--trace-slow-ms=", 16) == 0) {
            char *end = nullptr;
            cfg.traceSlowMs = std::strtod(arg + 16, &end);
            if (end == arg + 16 || *end != '\0' ||
                cfg.traceSlowMs < 0) {
                std::fprintf(stderr, "bad --trace-slow-ms value\n");
                return 1;
            }
        } else if (std::strncmp(arg, "--trace-log=", 12) == 0) {
            std::string trace_error;
            if (!obs::TraceLog::instance().configure(arg + 12,
                                                     trace_error)) {
                std::fprintf(stderr, "bad --trace-log: %s\n",
                             trace_error.c_str());
                return 1;
            }
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            std::string fault_error;
            if (!FaultInjector::instance().configureFromSpec(
                    arg + 9, fault_error)) {
                std::fprintf(stderr, "bad --faults spec: %s\n",
                             fault_error.c_str());
                return 1;
            }
        } else if (std::strncmp(arg, "--postmortem=", 13) == 0) {
            postmortem_path = arg + 13;
        } else if (std::strncmp(arg, "--store=", 8) == 0) {
            cfg.storePath = arg + 8;
        } else if (std::strcmp(arg, "--store-fsync") == 0) {
            cfg.storeFsync = true;
        } else if (std::strncmp(arg, "--prewarm=", 10) == 0) {
            cfg.prewarmPath = arg + 10;
        } else if (std::strncmp(arg, "--watchdog-ms=", 14) == 0) {
            if (!parseInt(arg + 14, 0, 3600000, watchdog_ms)) {
                std::fprintf(stderr, "bad --watchdog-ms value\n");
                return 1;
            }
        } else if (std::strncmp(arg, "--port-file=", 12) == 0) {
            port_file = arg + 12;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            quiet = true;
        } else {
            std::fprintf(
                stderr,
                "usage: square_served [--port=N] [--host=A] "
                "[--shards=1] [--workers=N] "
                "[--event-threads=N] [--cache-entries=N] "
                "[--cache-bytes=N] [--max-pending=N] "
                "[--batch-fraction=F] [--trace-sample=N] "
                "[--trace-slow-ms=T] [--trace-log=PATH] "
                "[--faults=SPEC] [--postmortem=PATH] "
                "[--store=PATH] [--store-fsync] [--prewarm=PATH] "
                "[--watchdog-ms=N] [--port-file=PATH] [--quiet]\n");
            return 1;
        }
    }

    setLogComponent("shard");

    // The env var covers deployment shapes with no flag path (CI
    // wrappers, tests spawning the binary); an explicit --faults flag
    // already configured the injector and wins over the environment.
    if (!FaultInjector::instance().enabled()) {
        std::string fault_error;
        if (!FaultInjector::instance().configureFromEnv(fault_error) &&
            !fault_error.empty()) {
            std::fprintf(stderr, "bad SQUARE_FAULTS spec: %s\n",
                         fault_error.c_str());
            return 1;
        }
    }

    // Postmortem sink: the flag wins, SQUARE_POSTMORTEM is the no-flag
    // fallback.  The crash handler is only worth installing once there
    // is somewhere for the dump to go.
    if (postmortem_path.empty()) {
        const char *env = std::getenv("SQUARE_POSTMORTEM");
        if (env != nullptr)
            postmortem_path = env;
    }
    if (!postmortem_path.empty()) {
        std::string pm_error;
        if (!obs::Postmortem::instance().configure(postmortem_path,
                                                   pm_error)) {
            std::fprintf(stderr, "square_served: %s\n",
                         pm_error.c_str());
            return 1;
        }
        obs::Postmortem::instance().installCrashHandler();
    }
    if (watchdog_ms > 0) {
        obs::WatchdogConfig wcfg;
        wcfg.thresholdMs = watchdog_ms;
        obs::Watchdog::instance().configure(wcfg);
    }

    // Same flag-beats-environment rule as the other deployment knobs.
    if (cfg.storePath.empty()) {
        const char *env = std::getenv("SQUARE_STORE");
        if (env != nullptr)
            cfg.storePath = env;
    }

    CompileServer server(cfg);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "square_served: %s\n", error.c_str());
        return 1;
    }
    if (!quiet) {
        std::fprintf(stderr,
                     "square_served: listening on %s:%u (%d event "
                     "threads, %d workers; cache bound: %zu entries, "
                     "%zu bytes; 0 = unbounded)\n",
                     cfg.host.c_str(), server.port(), cfg.eventThreads,
                     cfg.workers, cfg.limits.maxEntries,
                     cfg.limits.maxBytes);
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
    if (!port_file.empty()) {
        std::FILE *f = std::fopen(port_file.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "square_served: cannot write %s\n",
                         port_file.c_str());
            return 1;
        }
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // The owning thread observes the shutdown request (in-protocol or
    // signal) and performs the stop itself — connection threads must
    // not join themselves (see server.h).
    while (!server.shutdownRequested() && !g_signal.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();
    obs::Watchdog::instance().disable(); // join the checker thread

    if (!quiet) {
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
