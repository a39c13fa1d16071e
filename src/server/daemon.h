/**
 * @file
 * The shell both serving daemons run in.  square_served
 * (CompileServer, server.h) and square_router (RouterServer,
 * router_daemon.h) differ only in what they do with a compile request
 * — one compiles it, the other forwards it.  Everything else lives
 * here once: the shared flags and their environment fallbacks, the
 * process set-up and the signal wait, the admin commands, and the
 * registry list behind both {"cmd": "metrics"} and postmortem dumps.
 *
 * Flags both daemons take (daemonFlags):
 *   --host=A           IPv4 bind address (default 127.0.0.1)
 *   --port=N           listen port (default 0 = ephemeral; the bound
 *                      port is announced on stderr and in --port-file)
 *   --trace-sample=N   head-sample 1 in N requests into traces (see
 *                      src/obs/trace.h; 0 = off, the default)
 *   --trace-log=PATH   append NDJSON span lines to PATH (overrides
 *                      the SQUARE_TRACE_LOG environment variable)
 *   --faults=SPEC      enable fault injection, e.g.
 *                      "seed=7,compile_delay_ms=30,worker_death_rate=
 *                      0.05" (see src/server/faults.h for the grammar;
 *                      SQUARE_FAULTS is the no-flag fallback)
 *   --postmortem=PATH  append flight-recorder postmortem dumps (crash,
 *                      watchdog stall, {"cmd":"dump"}) to PATH and
 *                      install the SIGSEGV/SIGABRT/SIGBUS crash
 *                      handler; SQUARE_POSTMORTEM is the no-flag
 *                      fallback (read with tools/square_blackbox)
 *   --watchdog-ms=N    stall-watchdog threshold in ms (default 5000;
 *                      0 disables the watchdog entirely)
 *   --port-file=PATH   write the bound port (decimal, newline) once
 *                      listening — for scripts that pass --port=0
 *   --quiet            suppress the stderr banner and final counters
 *
 * Admin commands (answerNonCompile), on top of the compile protocol:
 *   {"cmd": "stats"}     the daemon's counters: a shard's service
 *                        line, or the router's shard fan-out sum plus
 *                        its fabric fields;
 *   {"cmd": "metrics"}   Prometheus text exposition (obs/metrics.h)
 *                        of the daemon's registry list, then the
 *                        fault-injection and build-info series,
 *                        \n-escaped into the reply's "text" field;
 *   {"cmd": "ping"}      a fixed liveness reply, id echoed;
 *   {"cmd": "dump"}      write a flight-recorder postmortem block;
 *   {"cmd": "shutdown"}  acknowledge and close the connection, then
 *                        the owning thread stops the daemon (the
 *                        router may first cascade it to its shards).
 */

#ifndef SQUARE_SERVER_DAEMON_H
#define SQUARE_SERVER_DAEMON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/function_ref.h"
#include "obs/metrics.h"
#include "service/protocol.h"

namespace square {

/** The values of the shared flags (see the file comment). */
struct DaemonFlags
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    uint64_t traceSample = 0;
    std::string postmortem;
    int watchdogMs = 5000;
    std::string portFile;
    bool quiet = false;
};

/**
 * The nine shared flag rows, writing into @p flags; --trace-log and
 * --faults configure their process-wide sinks as they parse.
 */
std::vector<Flag> daemonFlags(DaemonFlags &flags);

/**
 * Process set-up after parsing: the SQUARE_FAULTS and
 * SQUARE_POSTMORTEM fallbacks (a flag wins over the environment), the
 * postmortem sink with its crash handler, and the stall watchdog.
 * False after printing why, prefixed by @p name.
 */
bool setUpDaemon(const char *name, const DaemonFlags &flags);

/**
 * Write the port file, wait for @p shutdownRequested or SIGINT/SIGTERM,
 * then @p stop the server and stop the watchdog.  The owning thread
 * stops the server because the event-loop thread must not join
 * itself.  False after printing why when the port file cannot be
 * written.
 */
bool runDaemon(const char *name, uint16_t port, const DaemonFlags &flags,
               FunctionRef<bool()> shutdownRequested,
               FunctionRef<void()> stop);

/** A daemon registry: square_<name> in metrics, <name> in postmortems. */
struct NamedRegistry
{
    const char *name;
    const obs::Registry *registry;
};

/** Add every registry of @p list to future postmortem dumps. */
void registerPostmortem(const std::vector<NamedRegistry> &list);

/** Drop every registry of @p list from postmortem dumps. */
void unregisterPostmortem(const std::vector<NamedRegistry> &list);

/**
 * The {"cmd": "metrics"} text: every registry of @p list in order,
 * then the square_faults series and the build info.
 */
std::string renderDaemonMetrics(const std::vector<NamedRegistry> &list);

/**
 * Answer every line that is not a compile request, appending the framed
 * reply to @p out: protocol no-ops (nothing), parse errors, and every
 * {"cmd"} line, with @p stats and @p metrics rendering those replies
 * and @p shutdown run before the acknowledgment.  False leaves a
 * parsed compile request in @p json for the caller.
 */
bool answerNonCompile(std::string_view line, JsonRequest &json,
                      std::string &out, bool &close_conn,
                      FunctionRef<std::string()> stats,
                      FunctionRef<std::string()> metrics,
                      FunctionRef<void()> shutdown);

} // namespace square

#endif // SQUARE_SERVER_DAEMON_H
