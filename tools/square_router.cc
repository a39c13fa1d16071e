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
 * Flags:
 *   --port=N              listen port (default 0 = ephemeral)
 *   --host=A              IPv4 bind address (default 127.0.0.1)
 *   --shard=HOST:PORT     one shard daemon address (repeatable; at
 *                         least one required)
 *   --event-threads=N     epoll event-loop threads (default 1)
 *   --vnodes=N            virtual nodes per shard on the hash ring
 *                         (default 128)
 *   --ping-interval-ms=N  health-check cadence (default 200)
 *   --failure-threshold=N consecutive unanswered pings before an up
 *                         shard is ejected (default 3)
 *   --retry-after-ms=N    retry hint in shard_down replies (default
 *                         250)
 *   --cascade-shutdown    forward {"cmd":"shutdown"} to every shard
 *                         before acknowledging it
 *   --faults=SPEC         enable fault injection (connect_fail_rate,
 *                         reset_after_bytes, ... — see
 *                         src/server/faults.h; SQUARE_FAULTS honoured)
 *   --trace-sample=N      head-sample 1 in N compile requests into a
 *                         trace; the id rides the forwarded framing so
 *                         the shard traces the same request (default 0
 *                         = off)
 *   --trace-log=PATH      NDJSON span log destination (overrides the
 *                         SQUARE_TRACE_LOG environment variable)
 *   --postmortem=PATH     append flight-recorder postmortem dumps to
 *                         PATH and install the crash handler (env
 *                         fallback: SQUARE_POSTMORTEM)
 *   --watchdog-ms=N       stall-watchdog threshold in ms (default
 *                         5000; 0 disables)
 *   --port-file=PATH      write the bound port once listening
 *   --quiet               suppress the stderr banner and counters
 *
 * Runs until {"cmd":"shutdown"} or SIGINT/SIGTERM; exits 0 after a
 * clean drain (transport stopped, upstream pool flushed and joined).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/faults.h"
#include "server/router_daemon.h"

using namespace square;

namespace {

std::atomic<bool> g_signal{false};

void
onSignal(int)
{
    g_signal.store(true);
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

} // namespace

int
main(int argc, char **argv)
{
    RouterConfig cfg;
    std::string port_file;
    std::string postmortem_path;
    int watchdog_ms = 5000;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        int int_value = 0;
        if (std::strncmp(arg, "--port=", 7) == 0) {
            if (!parseInt(arg + 7, 0, 65535, int_value)) {
                std::fprintf(stderr, "bad --port value\n");
                return 1;
            }
            cfg.port = static_cast<uint16_t>(int_value);
        } else if (std::strncmp(arg, "--host=", 7) == 0) {
            cfg.host = arg + 7;
        } else if (std::strncmp(arg, "--shard=", 8) == 0) {
            cfg.shards.emplace_back(arg + 8);
        } else if (std::strncmp(arg, "--event-threads=", 16) == 0) {
            if (!parseInt(arg + 16, 1, 256, int_value)) {
                std::fprintf(stderr, "bad --event-threads value\n");
                return 1;
            }
            cfg.eventThreads = int_value;
        } else if (std::strncmp(arg, "--vnodes=", 9) == 0) {
            if (!parseInt(arg + 9, 1, 65536, int_value)) {
                std::fprintf(stderr, "bad --vnodes value\n");
                return 1;
            }
            cfg.upstream.vnodes = int_value;
        } else if (std::strncmp(arg, "--ping-interval-ms=", 19) == 0) {
            if (!parseInt(arg + 19, 1, 3600000, int_value)) {
                std::fprintf(stderr, "bad --ping-interval-ms value\n");
                return 1;
            }
            cfg.upstream.pingIntervalMs = int_value;
        } else if (std::strncmp(arg, "--failure-threshold=", 20) == 0) {
            if (!parseInt(arg + 20, 1, 1000, int_value)) {
                std::fprintf(stderr, "bad --failure-threshold value\n");
                return 1;
            }
            cfg.upstream.failureThreshold = int_value;
        } else if (std::strncmp(arg, "--retry-after-ms=", 17) == 0) {
            if (!parseInt(arg + 17, 0, 3600000, int_value)) {
                std::fprintf(stderr, "bad --retry-after-ms value\n");
                return 1;
            }
            cfg.upstream.retryAfterMs = int_value;
        } else if (std::strcmp(arg, "--cascade-shutdown") == 0) {
            cfg.cascadeShutdown = true;
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            std::string fault_error;
            if (!FaultInjector::instance().configureFromSpec(
                    arg + 9, fault_error)) {
                std::fprintf(stderr, "bad --faults spec: %s\n",
                             fault_error.c_str());
                return 1;
            }
        } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
            if (!parseInt(arg + 15, 0, 1000000000, int_value)) {
                std::fprintf(stderr, "bad --trace-sample value\n");
                return 1;
            }
            cfg.traceSample = static_cast<uint64_t>(int_value);
        } else if (std::strncmp(arg, "--trace-log=", 12) == 0) {
            std::string trace_error;
            if (!obs::TraceLog::instance().configure(arg + 12,
                                                     trace_error)) {
                std::fprintf(stderr, "bad --trace-log: %s\n",
                             trace_error.c_str());
                return 1;
            }
        } else if (std::strncmp(arg, "--postmortem=", 13) == 0) {
            postmortem_path = arg + 13;
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
                "usage: square_router --shard=HOST:PORT [--shard=...] "
                "[--port=N] [--host=A] [--event-threads=N] "
                "[--vnodes=N] [--ping-interval-ms=N] "
                "[--failure-threshold=N] [--retry-after-ms=N] "
                "[--cascade-shutdown] [--faults=SPEC] "
                "[--trace-sample=N] [--trace-log=PATH] "
                "[--postmortem=PATH] "
                "[--watchdog-ms=N] "
                "[--port-file=PATH] [--quiet]\n");
            return 1;
        }
    }
    if (cfg.shards.empty()) {
        std::fprintf(stderr,
                     "square_router: at least one --shard=HOST:PORT "
                     "is required\n");
        return 1;
    }
    setLogComponent("router");

    if (!FaultInjector::instance().enabled()) {
        std::string fault_error;
        if (!FaultInjector::instance().configureFromEnv(fault_error) &&
            !fault_error.empty()) {
            std::fprintf(stderr, "bad SQUARE_FAULTS spec: %s\n",
                         fault_error.c_str());
            return 1;
        }
    }

    if (postmortem_path.empty()) {
        const char *env = std::getenv("SQUARE_POSTMORTEM");
        if (env != nullptr)
            postmortem_path = env;
    }
    if (!postmortem_path.empty()) {
        std::string pm_error;
        if (!obs::Postmortem::instance().configure(postmortem_path,
                                                   pm_error)) {
            std::fprintf(stderr, "square_router: %s\n",
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

    std::string error;
    RouterServer server(cfg);
    if (!server.start(error)) {
        std::fprintf(stderr, "square_router: %s\n", error.c_str());
        return 1;
    }
    if (!quiet) {
        std::fprintf(stderr,
                     "square_router: listening on %s:%u, routing over "
                     "%zu shard(s) (%d vnodes each)\n",
                     cfg.host.c_str(), server.port(),
                     cfg.shards.size(), cfg.upstream.vnodes);
    }
    if (!port_file.empty()) {
        std::FILE *f = std::fopen(port_file.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "square_router: cannot write %s\n",
                         port_file.c_str());
            return 1;
        }
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    while (!server.shutdownRequested() && !g_signal.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();
    obs::Watchdog::instance().disable(); // join the checker thread

    if (!quiet) {
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
