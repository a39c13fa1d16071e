/**
 * @file
 * square_blackbox: read the flight recorder's postmortem files.
 *
 * A postmortem file (a daemon's --postmortem=PATH / SQUARE_POSTMORTEM)
 * is NDJSON: every dump — operator {"cmd": "dump"}, watchdog stall, or
 * crash — appends one begin..end block (ev and metric lines between
 * them), every line tagged
 * with the writing pid so several processes can share one file (the
 * fabric script points the router and all shards at per-daemon files,
 * but nothing requires that).  This tool reassembles the blocks,
 * time-orders each block's events (the dump writes them per-ring), and
 * pretty-prints them; with filters it answers the first postmortem
 * questions — "what did this thread do", "where did this traced
 * request go", "what was the last thing before the crash":
 *
 *   square_blackbox state/shard2.postmortem
 *   square_blackbox --trace=4fd91b2ca67e0001 state/*.postmortem
 *   square_blackbox --comp=upstream --ev=failover state/router.postmortem
 *   square_blackbox --traces state/shard2.postmortem
 *
 * Flags:
 *   --comp=NAME   only events from this component (service, transport,
 *                 worker, upstream, router, fault, watchdog)
 *   --ev=NAME     only this event code (see docs/OBSERVABILITY.md)
 *   --trace=HEX   only events carrying this 16-hex-digit trace id
 *   --pid=N       only blocks written by this pid
 *   --reason=R    only blocks with this dump reason (command, stall,
 *                 crash)
 *   --traces      list the distinct trace ids seen (with event counts)
 *                 instead of printing events
 *   --metrics     print each block's metric snapshot lines too
 *   --quiet       suppress per-event output (summaries only)
 *
 * Exit status: 0 when at least one COMPLETE block (begin through end,
 * surviving the --pid/--reason filters) was parsed, 1 otherwise — CI
 * uses that to assert a crash really produced a readable postmortem.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "service/protocol.h"

using namespace square;

namespace {

struct PmEvent {
    int64_t tsUs = 0;
    std::string comp;
    std::string ev;
    uint64_t tid = 0;
    uint64_t a0 = 0;
    uint64_t a1 = 0;
    std::string trace; // 16 hex chars, "" when absent
};

struct PmMetric {
    std::string reg;
    std::string name;
    std::string kind;
    int64_t value = 0;
};

struct PmBlock {
    uint64_t pid = 0;
    std::string reason;
    std::string signalName;
    int64_t wallUs = 0;
    int64_t monoUs = 0;
    int64_t declaredEvents = -1;
    int64_t dropped = 0;
    bool complete = false;
    std::vector<PmEvent> events;
    std::vector<PmMetric> metrics;
};

struct Options {
    std::string comp;
    std::string ev;
    std::string trace;
    std::string reason;
    uint64_t pid = 0; // 0 = any
    bool traces = false;
    bool metrics = false;
    bool quiet = false;
};

/**
 * Parse one postmortem file, appending every block closed by an "end"
 * line to @p blocks.  Blocks are keyed by pid while open: concurrent
 * dumps from processes sharing the file interleave at write()
 * granularity, never within a line.  Unterminated blocks (the process
 * died mid-dump, or the dump is still being written) are dropped.
 */
bool
parseFile(const std::string &path, std::vector<PmBlock> &blocks,
          std::string &error)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::map<uint64_t, PmBlock> open;
    std::string line;
    JsonRequest json;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string parse_error;
        if (!parseJsonLine(line, json, parse_error))
            continue; // torn write or foreign line: skip, not fatal
        const std::string kind = json.get("pm");
        const uint64_t pid = json.getInt<uint64_t>("pid");
        if (kind == "begin") {
            PmBlock block;
            block.pid = pid;
            block.reason = json.get("reason");
            block.signalName = json.get("signal_name");
            block.wallUs = json.getInt<int64_t>("wall_us");
            block.monoUs = json.getInt<int64_t>("mono_us");
            open[pid] = std::move(block); // a re-begin drops the torso
        } else if (kind == "ev") {
            auto it = open.find(pid);
            if (it == open.end())
                continue;
            PmEvent ev;
            ev.tsUs = json.getInt<int64_t>("ts_us");
            ev.comp = json.get("comp");
            ev.ev = json.get("ev");
            ev.tid = json.getInt<uint64_t>("tid");
            ev.a0 = json.getInt<uint64_t>("a0");
            ev.a1 = json.getInt<uint64_t>("a1");
            ev.trace = json.get("trace");
            it->second.events.push_back(std::move(ev));
        } else if (kind == "metric") {
            auto it = open.find(pid);
            if (it == open.end())
                continue;
            PmMetric m;
            m.reg = json.get("reg");
            m.name = json.get("name");
            m.kind = json.get("kind");
            m.value = json.getInt<int64_t>("value");
            it->second.metrics.push_back(std::move(m));
        } else if (kind == "end") {
            auto it = open.find(pid);
            if (it == open.end())
                continue;
            PmBlock block = std::move(it->second);
            open.erase(it);
            block.declaredEvents = json.getInt<int64_t>("events");
            block.dropped = json.getInt<int64_t>("dropped");
            block.complete = true;
            std::stable_sort(block.events.begin(), block.events.end(),
                             [](const PmEvent &a, const PmEvent &b) {
                                 return a.tsUs < b.tsUs;
                             });
            blocks.push_back(std::move(block));
        }
    }
    return true;
}

bool
eventPasses(const PmEvent &ev, const Options &opt)
{
    if (!opt.comp.empty() && ev.comp != opt.comp)
        return false;
    if (!opt.ev.empty() && ev.ev != opt.ev)
        return false;
    if (!opt.trace.empty() && ev.trace != opt.trace)
        return false;
    return true;
}

void
printBlock(const PmBlock &block, const Options &opt)
{
    std::printf("== postmortem pid=%" PRIu64 " reason=%s%s%s "
                "events=%" PRId64 " dropped=%" PRId64 " ==\n",
                block.pid, block.reason.c_str(),
                block.signalName.empty() ? "" : " signal=",
                block.signalName.c_str(), block.declaredEvents,
                block.dropped);
    if (!opt.quiet) {
        for (const PmEvent &ev : block.events) {
            if (!eventPasses(ev, opt))
                continue;
            // Relative seconds against the dump instant: "how long
            // before the dump did this happen" is the useful axis.
            const double rel =
                static_cast<double>(ev.tsUs - block.monoUs) / 1e6;
            std::printf("  [%+11.6fs] %-9s %-19s tid=%-3" PRIu64
                        " a0=%-8" PRIu64 " a1=%-8" PRIu64,
                        rel, ev.comp.c_str(), ev.ev.c_str(), ev.tid,
                        ev.a0, ev.a1);
            if (!ev.trace.empty())
                std::printf(" trace=%s", ev.trace.c_str());
            std::printf("\n");
        }
    }
    if (opt.metrics) {
        for (const PmMetric &m : block.metrics)
            std::printf("  metric %s/%s (%s) = %" PRId64 "\n",
                        m.reg.c_str(), m.name.c_str(), m.kind.c_str(),
                        m.value);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> files;
    if (!parseFlags(argc, argv,
                    {textFlag("comp", "NAME", opt.comp),
                     textFlag("ev", "NAME", opt.ev),
                     textFlag("trace", "HEX", opt.trace),
                     uintFlag("pid", opt.pid),
                     textFlag("reason", "R", opt.reason),
                     switchFlag("traces", opt.traces),
                     switchFlag("metrics", opt.metrics),
                     switchFlag("quiet", opt.quiet)},
                    &files, "FILE..."))
        return 1;
    if (files.empty()) {
        std::fprintf(stderr,
                     "square_blackbox: no postmortem files given\n");
        return 1;
    }

    std::vector<PmBlock> blocks;
    for (const std::string &path : files) {
        std::string error;
        if (!parseFile(path, blocks, error)) {
            std::fprintf(stderr, "square_blackbox: %s\n",
                         error.c_str());
            return 1;
        }
    }

    int complete = 0;
    std::map<std::string, int64_t> trace_counts;
    for (const PmBlock &block : blocks) {
        if (opt.pid != 0 && block.pid != opt.pid)
            continue;
        if (!opt.reason.empty() && block.reason != opt.reason)
            continue;
        ++complete;
        if (opt.traces) {
            for (const PmEvent &ev : block.events)
                if (!ev.trace.empty() && eventPasses(ev, opt))
                    ++trace_counts[ev.trace];
        } else {
            printBlock(block, opt);
        }
    }
    if (opt.traces) {
        for (const auto &[trace, count] : trace_counts)
            std::printf("%s %" PRId64 "\n", trace.c_str(), count);
        std::printf("(%zu distinct trace ids, %d blocks)\n",
                    trace_counts.size(), complete);
    }
    if (complete == 0) {
        std::fprintf(stderr, "square_blackbox: no complete postmortem "
                             "blocks matched\n");
        return 1;
    }
    return 0;
}
