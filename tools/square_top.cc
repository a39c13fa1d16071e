/**
 * @file
 * square_top: live metrics dashboard for the serving fabric.
 *
 * Polls one or more square_served / square_router processes with the
 * {"cmd": "metrics"} command, parses the Prometheus-style exposition
 * out of the reply's "text" field, and renders a refreshing terminal
 * view: every series with its current value, plus a per-second rate
 * column for counters (computed from the previous poll).  Targets are
 * re-connected every tick, so a restarted daemon just reappears.
 *
 *   square_top --target=127.0.0.1:7801 --target=127.0.0.1:7811
 *
 * Flags:
 *   --target=HOST:PORT  a daemon to poll (repeatable; at least one
 *                       required)
 *   --interval=SEC      poll cadence in seconds (default 2)
 *   --filter=SUBSTR     only show series whose name contains SUBSTR
 *   --once              poll each target once, print the raw
 *                       exposition text, and exit (CI smoke mode —
 *                       exits non-zero if any target fails to answer)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "server/client.h"
#include "server/net.h"
#include "service/protocol.h"

using namespace square;

namespace {

/** Recv deadline per poll: one hung daemon must not freeze the view. */
constexpr int kRecvTimeoutMs = 2000;

struct Target {
    std::string host;
    uint16_t port = 0;
    std::string label; // the original HOST:PORT string
};

/**
 * One poll: fresh connection, {"cmd":"metrics"}, unescaped exposition
 * text out.  False (with the reason) on any transport or protocol
 * failure.
 */
bool
fetchMetrics(const Target &target, std::string &text,
             std::string &error)
{
    LineClient client;
    if (!client.connect(target.host, target.port, error))
        return false;
    client.setRecvTimeoutMs(kRecvTimeoutMs);
    if (!client.sendLine("{\"cmd\": \"metrics\"}")) {
        error = "send failed";
        return false;
    }
    std::string reply;
    if (!client.recvLine(reply)) {
        error = "no reply";
        return false;
    }
    JsonRequest parsed;
    if (!parseJsonLine(reply, parsed, error))
        return false;
    if (!parsed.has("text")) {
        error = "reply carries no metrics text";
        return false;
    }
    text = parsed.get("text");
    return true;
}

/**
 * Exposition text -> ordered (series, value) pairs.  A series key is
 * the full name-with-labels string, so shard/quantile labels stay
 * distinct rows; '#' comment lines are dropped.
 */
std::vector<std::pair<std::string, long long>>
parseSeries(const std::string &text)
{
    std::vector<std::pair<std::string, long long>> out;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line.front() == '#')
            continue;
        const size_t space = line.rfind(' ');
        if (space == std::string_view::npos)
            continue;
        // Every exposed value is an integer; a malformed one reads 0.
        int64_t value = 0;
        parseInt(line.substr(space + 1), INT64_MIN, INT64_MAX, value);
        out.emplace_back(std::string(line.substr(0, space)), value);
    }
    return out;
}

/**
 * Pull the square_build_info labels and square_uptime_seconds out of
 * the exposition text for the per-target header line ("" when the
 * daemon predates them).
 */
std::string
buildInfoSummary(const std::string &text)
{
    std::string out;
    constexpr const char *kInfo = "square_build_info{";
    size_t pos = text.find(kInfo);
    if (pos != std::string::npos) {
        pos += std::strlen(kInfo);
        const size_t end = text.find('}', pos);
        if (end != std::string::npos)
            out = text.substr(pos, end - pos);
    }
    constexpr const char *kUp = "square_uptime_seconds ";
    pos = text.find(kUp);
    if (pos != std::string::npos) {
        pos += std::strlen(kUp);
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        if (!out.empty())
            out += ", ";
        out += "up ";
        out += text.substr(pos, eol - pos);
        out += "s";
    }
    return out;
}

bool
isCounterSeries(const std::string &name)
{
    // _count (histogram sample counts) rates are as meaningful as
    // _total rates; quantile/gauge rows get no rate column.
    const size_t brace = name.find('{');
    const std::string_view bare(
        name.data(), brace == std::string::npos ? name.size() : brace);
    auto ends_with = [bare](std::string_view suffix) {
        return bare.size() >= suffix.size() &&
               bare.substr(bare.size() - suffix.size()) == suffix;
    };
    return ends_with("_total") || ends_with("_count");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<Target> targets;
    double interval_s = 2.0;
    std::string filter;
    bool once = false;
    if (!parseFlags(
            argc, argv,
            {{"target", "HOST:PORT",
              [&targets](std::string_view spec, std::string &why) {
                  Target t;
                  t.label = spec;
                  if (!net::splitHostPort(spec, t.host, t.port)) {
                      why = "want HOST:PORT";
                      return false;
                  }
                  targets.push_back(std::move(t));
                  return true;
              }},
             // Positive, and small enough for sleep_for's integer
             // conversion.
             realFlag("interval", "SEC", interval_s,
                      std::nextafter(0.0, 1.0), 1e9),
             textFlag("filter", "SUBSTR", filter),
             switchFlag("once", once)}))
        return 1;
    if (targets.empty()) {
        std::fprintf(stderr,
                     "square_top: at least one --target=HOST:PORT is "
                     "required\n");
        return 1;
    }

    if (once) {
        // CI smoke mode: raw exposition per target, no screen control.
        bool ok = true;
        for (const Target &target : targets) {
            std::string text, error;
            std::printf("== %s ==\n", target.label.c_str());
            if (fetchMetrics(target, text, error)) {
                std::fwrite(text.data(), 1, text.size(), stdout);
                if (!text.empty() && text.back() != '\n')
                    std::fputc('\n', stdout);
            } else {
                std::printf("(unreachable: %s)\n", error.c_str());
                ok = false;
            }
        }
        return ok ? 0 : 1;
    }

    // Live view: previous poll per target for counter rates.
    std::vector<std::map<std::string, long long>> prev(targets.size());
    auto prev_t = std::chrono::steady_clock::now();
    double elapsed_s = 0; // 0 on the first frame: rates suppressed
    for (;;) {
        std::string frame;
        frame += "\x1b[H\x1b[2J"; // home + clear
        char head[128];
        std::snprintf(head, sizeof head,
                      "square_top — %zu target(s), every %.1fs "
                      "(ctrl-c to quit)\n",
                      targets.size(), interval_s);
        frame += head;
        for (size_t t = 0; t < targets.size(); ++t) {
            frame += "\n== ";
            frame += targets[t].label;
            std::string text, error;
            if (!fetchMetrics(targets[t], text, error)) {
                frame += " ==\n(unreachable: " + error + ")\n";
                prev[t].clear();
                continue;
            }
            const std::string info = buildInfoSummary(text);
            if (!info.empty()) {
                frame += " (";
                frame += info;
                frame += ')';
            }
            frame += " ==\n";
            for (const auto &[series, value] : parseSeries(text)) {
                if (!filter.empty() &&
                    series.find(filter) == std::string::npos)
                    continue;
                char row[192];
                const auto it = prev[t].find(series);
                if (isCounterSeries(series) && it != prev[t].end() &&
                    elapsed_s > 0) {
                    std::snprintf(
                        row, sizeof row, "%-58s %12lld %10.1f/s\n",
                        series.c_str(), value,
                        static_cast<double>(value - it->second) /
                            elapsed_s);
                } else {
                    std::snprintf(row, sizeof row, "%-58s %12lld\n",
                                  series.c_str(), value);
                }
                frame += row;
                prev[t][series] = value;
            }
        }
        std::fwrite(frame.data(), 1, frame.size(), stdout);
        std::fflush(stdout);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval_s));
        const auto now = std::chrono::steady_clock::now();
        elapsed_s =
            std::chrono::duration<double>(now - prev_t).count();
        prev_t = now;
    }
}
