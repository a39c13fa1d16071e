#include "fabric.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/client.h"
#include "service/protocol.h"

extern char **environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Shard daemons per fabric, one shard each. */
constexpr int kShards = 2;

/** First line of a small file, or "" while it is absent or empty. */
std::string
readLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Reap @p pid within @p ms; true when it exited. */
bool
reapWithin(pid_t pid, int ms)
{
    const auto deadline = Clock::now() + std::chrono::milliseconds(ms);
    while (true) {
        int status = 0;
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            return true;
        if (Clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/**
 * The environment minus every SQUARE_* variable: the daemons must see
 * only the generated requests, not deployment knobs.
 */
std::vector<std::string>
daemonEnvironment()
{
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "SQUARE_", 7) != 0)
            env.emplace_back(*e);
    }
    return env;
}

/**
 * Fork and exec @p args in process group @p pgid (0 = a new group led
 * by the child), stdout and stderr to @p log.  Returns the pid, or -1.
 */
pid_t
spawn(std::vector<std::string> args, std::vector<std::string> env,
      const std::string &log, pid_t pgid)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<char *> envp;
    for (std::string &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid == 0) {
        ::setpgid(0, pgid);
        int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
    if (pid > 0)
        ::setpgid(pid, pgid == 0 ? pid : pgid);
    return pid;
}

/**
 * Poll @p path every 2 ms until it holds a port; false when @p pid
 * exits first or @p deadline passes.
 */
bool
awaitPort(const std::string &path, pid_t pid, Clock::time_point deadline,
          uint16_t &port, std::string &error)
{
    std::string line;
    while ((line = readLine(path)).empty()) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            error = "daemon exited during start-up (no " + path + ")";
            return false;
        }
        if (Clock::now() >= deadline) {
            error = "timed out waiting for " + path;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    port = static_cast<uint16_t>(std::atoi(line.c_str()));
    return true;
}

} // namespace

bool
Fabric::start(const std::string &daemon_dir, const std::string &state_dir,
              size_t cache_entries, std::string &error)
{
    std::error_code ec;
    std::filesystem::create_directories(state_dir, ec);
    if (ec) {
        error = "cannot create " + state_dir + ": " + ec.message();
        return false;
    }
    const std::vector<std::string> env = daemonEnvironment();
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    auto fail = [&](const std::string &why) {
        error = why;
        stop();
        return false;
    };

    // The command lines tools/square_fabric.sh deploys, with
    // --workers=1 --served-flags=--shards=1 --quiet.
    for (int i = 1; i <= kShards; ++i) {
        const std::string base = state_dir + "/shard" + std::to_string(i);
        std::vector<std::string> args = {
            daemon_dir + "/square_served",
            "--port=0",
            "--port-file=" + base + ".port",
            "--postmortem=" + base + ".postmortem",
            "--store=" + base + ".store",
            "--workers=1",
        };
        if (cache_entries > 0)
            args.push_back("--cache-entries=" + std::to_string(cache_entries));
        args.push_back("--quiet");
        args.push_back("--shards=1");
        pid_t pid = spawn(std::move(args), env, base + ".log",
                          pgid_ > 0 ? pgid_ : 0);
        if (pid < 0)
            return fail(std::string("fork: ") + std::strerror(errno));
        if (pgid_ <= 0)
            pgid_ = pid;
        shardPids_.push_back(pid);
    }
    for (int i = 1; i <= kShards; ++i) {
        uint16_t port = 0;
        if (!awaitPort(state_dir + "/shard" + std::to_string(i) + ".port",
                       shardPids_[i - 1], deadline, port, error))
            return fail(error);
        shardPorts_.push_back(port);
    }

    std::vector<std::string> args = {
        daemon_dir + "/square_router",
        "--port=0",
        "--port-file=" + state_dir + "/router.port",
        "--postmortem=" + state_dir + "/router.postmortem",
        "--cascade-shutdown",
    };
    for (uint16_t port : shardPorts_)
        args.push_back("--shard=127.0.0.1:" + std::to_string(port));
    args.push_back("--quiet");
    routerPid_ = spawn(std::move(args), env, state_dir + "/router.log", pgid_);
    if (routerPid_ < 0)
        return fail(std::string("fork: ") + std::strerror(errno));
    uint16_t port = 0;
    if (!awaitPort(state_dir + "/router.port", routerPid_, deadline, port,
                   error))
        return fail(error);
    routerPort_ = port;
    return true;
}

bool
Fabric::stop()
{
    if (pgid_ <= 0)
        return true;
    std::vector<pid_t> pids = shardPids_;
    if (routerPid_ > 0)
        pids.push_back(routerPid_);
    bool clean = false;
    if (routerPort_ != 0) {
        std::string reply;
        std::string error;
        exchange(routerPort_, "{\"cmd\": \"shutdown\"}", reply, error, 5000);
        clean = true;
        for (pid_t pid : pids)
            clean = reapWithin(pid, 15000) && clean;
    }
    if (!clean) {
        ::kill(-pgid_, SIGTERM);
        bool gone = true;
        for (pid_t pid : pids)
            gone = reapWithin(pid, 2000) && gone;
        if (!gone) {
            ::kill(-pgid_, SIGKILL);
            for (pid_t pid : pids)
                reapWithin(pid, 5000);
        }
    }
    pgid_ = -1;
    routerPid_ = -1;
    routerPort_ = 0;
    shardPids_.clear();
    shardPorts_.clear();
    return clean;
}

bool
exchange(uint16_t port, const std::string &line, std::string &reply,
         std::string &error, int timeout_ms)
{
    square::LineClient client;
    if (!client.connect("127.0.0.1", port, error))
        return false;
    client.setRecvTimeoutMs(timeout_ms);
    if (!client.sendLine(line)) {
        error = "send failed";
        return false;
    }
    if (!client.recvLine(reply)) {
        error = "no reply";
        return false;
    }
    return true;
}

Counters
parseNumbers(std::string_view line)
{
    Counters out;
    square::JsonRequest json;
    std::string error;
    if (!square::parseJsonLine(line, json, error))
        return out;
    for (const auto &[k, v] : json.fields) {
        if (v == "true" || v == "false") {
            out[k] = v == "true" ? 1.0 : 0.0;
            continue;
        }
        char *end = nullptr;
        double d = std::strtod(v.c_str(), &end);
        if (end != v.c_str() && *end == '\0')
            out[k] = d;
    }
    return out;
}

Counters
parseMetricsText(std::string_view text)
{
    Counters out;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        size_t space = line.rfind(' ');
        if (space == std::string_view::npos)
            continue;
        std::string series(line.substr(0, space));
        double value = std::strtod(std::string(line.substr(space + 1)).c_str(),
                                   nullptr);
        size_t brace = series.find('{');
        std::string name = series.substr(0, brace);
        if (brace != std::string::npos) {
            size_t q = series.find("quantile=\"", brace);
            if (q != std::string::npos) {
                size_t qs = q + 10;
                std::string key =
                    name + ":q" +
                    series.substr(qs, series.find('"', qs) - qs);
                auto it = out.find(key);
                out[key] = it == out.end() ? value
                                           : std::max(it->second, value);
                continue;
            }
        }
        out[name] += value;
    }
    return out;
}

bool
fetchStats(uint16_t port, Counters &out, std::string &error)
{
    std::string reply;
    if (!exchange(port, "{\"cmd\": \"stats\"}", reply, error))
        return false;
    out = parseNumbers(reply);
    if (out["ok"] != 1.0) {
        error = "stats reply not ok: " + reply;
        return false;
    }
    return true;
}

bool
fetchMetrics(uint16_t port, Counters &out, std::string &error)
{
    std::string reply;
    if (!exchange(port, "{\"cmd\": \"metrics\"}", reply, error))
        return false;
    square::JsonRequest json;
    if (!square::parseJsonLine(reply, json, error))
        return false;
    if (json.get("ok") != "true") {
        error = "metrics reply not ok";
        return false;
    }
    out = parseMetricsText(json.get("text"));
    return true;
}

double
delta(const Counters &before, const Counters &after,
      const std::string &name)
{
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
}

bool
setProcessAffinity(pid_t pid, const cpu_set_t &mask)
{
    std::error_code ec;
    std::filesystem::directory_iterator tasks(
        "/proc/" + std::to_string(pid) + "/task", ec);
    if (ec)
        return false;
    for (const std::filesystem::directory_entry &task : tasks) {
        const pid_t tid = static_cast<pid_t>(
            std::atoi(task.path().filename().c_str()));
        if (::sched_setaffinity(tid, sizeof mask, &mask) != 0)
            return false;
    }
    return true;
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

double
cpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command: state is field 3, utime
    // and stime are fields 14 and 15.
    size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace perfbench
