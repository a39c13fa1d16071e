#include "server/daemon.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/faults.h"

namespace square {

namespace {

std::atomic<bool> g_signal{false};

void
onSignal(int)
{
    g_signal.store(true);
}

} // namespace

std::vector<Flag>
daemonFlags(DaemonFlags &flags)
{
    return {
        textFlag("host", "A", flags.host),
        intFlag("port", flags.port, 0, 65535),
        uintFlag("trace-sample", flags.traceSample),
        {"trace-log", "PATH",
         [](std::string_view path, std::string &why) {
             return obs::TraceLog::instance().configure(std::string(path),
                                                        why);
         }},
        {"faults", "SPEC",
         [](std::string_view spec, std::string &why) {
             return FaultInjector::instance().configureFromSpec(
                 std::string(spec), why);
         }},
        textFlag("postmortem", "PATH", flags.postmortem),
        intFlag("watchdog-ms", flags.watchdogMs, 0, 3600000),
        textFlag("port-file", "PATH", flags.portFile),
        switchFlag("quiet", flags.quiet),
    };
}

bool
setUpDaemon(const char *name, const DaemonFlags &flags)
{
    // The env var covers deployment shapes with no flag path (CI
    // wrappers, tests spawning the binary); an explicit --faults flag
    // already configured the injector and wins over the environment.
    FaultInjector &faults = FaultInjector::instance();
    std::string error;
    if (!faults.enabled() && !faults.configureFromEnv(error) &&
        !error.empty()) {
        std::fprintf(stderr, "%s: bad SQUARE_FAULTS spec: %s\n", name,
                     error.c_str());
        return false;
    }

    // The crash handler is only worth installing once there is
    // somewhere for the dump to go.
    std::string postmortem = flags.postmortem;
    const char *env = std::getenv("SQUARE_POSTMORTEM");
    if (postmortem.empty() && env != nullptr)
        postmortem = env;
    if (!postmortem.empty()) {
        if (!obs::Postmortem::instance().configure(postmortem, error)) {
            std::fprintf(stderr, "%s: %s\n", name, error.c_str());
            return false;
        }
        obs::Postmortem::instance().installCrashHandler();
    }
    if (flags.watchdogMs > 0) {
        obs::WatchdogConfig wcfg;
        wcfg.thresholdMs = flags.watchdogMs;
        obs::Watchdog::instance().configure(wcfg);
    }
    return true;
}

bool
runDaemon(const char *name, uint16_t port, const DaemonFlags &flags,
          FunctionRef<bool()> shutdownRequested, FunctionRef<void()> stop)
{
    if (!flags.portFile.empty()) {
        std::FILE *f = std::fopen(flags.portFile.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "%s: cannot write %s\n", name,
                         flags.portFile.c_str());
            return false;
        }
        std::fprintf(f, "%u\n", port);
        std::fclose(f);
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!shutdownRequested() && !g_signal.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop();
    obs::Watchdog::instance().disable(); // join the checker thread
    return true;
}

void
registerPostmortem(const std::vector<NamedRegistry> &list)
{
    for (const NamedRegistry &entry : list)
        obs::Postmortem::instance().registerRegistry(entry.name,
                                                     entry.registry);
}

void
unregisterPostmortem(const std::vector<NamedRegistry> &list)
{
    // registerRegistry does not dedupe: every slot must be released,
    // or start/stop churn (tests) fills the table.
    for (const NamedRegistry &entry : list)
        obs::Postmortem::instance().unregisterRegistry(entry.registry);
}

std::string
renderDaemonMetrics(const std::vector<NamedRegistry> &list)
{
    std::string text;
    for (const NamedRegistry &entry : list)
        obs::renderPrometheus(text, std::string("square_") + entry.name,
                              *entry.registry);
    obs::renderPrometheus(text, "square_faults",
                          FaultInjector::instance().metricsRegistry());
    obs::renderBuildInfo(text);
    return text;
}

bool
answerNonCompile(std::string_view line, JsonRequest &json,
                 std::string &out, bool &close_conn,
                 FunctionRef<std::string()> stats,
                 FunctionRef<std::string()> metrics,
                 FunctionRef<void()> shutdown)
{
    if (isProtocolNoOp(line))
        return true;
    std::string error;
    if (!parseJsonLine(line, json, error)) {
        out += formatError(json, error);
        out += '\n';
        return true;
    }
    const std::string *cmd = json.find("cmd");
    if (cmd == nullptr)
        return false;

    if (*cmd == "stats") {
        out += stats();
    } else if (*cmd == "metrics") {
        out += formatTextReply(json, "metrics", metrics());
    } else if (*cmd == "ping") {
        // Liveness probe (the fabric router's health checks): a fixed
        // reply, no service-layer work, id echoed so pings multiplex
        // over a pipelined data connection.
        out += '{';
        out += replyIdPrefix(json);
        out += "\"ok\": true, \"cmd\": \"ping\"}";
    } else if (*cmd == "dump") {
        const int64_t events = obs::Postmortem::instance().dump("command");
        if (events < 0) {
            out += formatError(json, "no postmortem file configured");
        } else {
            out += '{';
            out += replyIdPrefix(json);
            out += "\"ok\": true, \"cmd\": \"dump\", \"events\": ";
            out += std::to_string(events);
            out += ", \"path\": \"";
            out += obs::Postmortem::instance().path();
            out += "\"}";
        }
    } else if (*cmd == "shutdown") {
        shutdown();
        close_conn = true;
        out += "{\"ok\": true, \"cmd\": \"shutdown\"}";
    } else {
        out += formatError(json, "unknown cmd \"" + *cmd + "\"");
    }
    out += '\n';
    return true;
}

} // namespace square
