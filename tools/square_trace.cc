/**
 * @file
 * square_trace: pretty-printer and aggregator for the NDJSON span log.
 *
 * Reads the span lines emitted by the fabric's TraceLog (one file
 * shared by client, router, and shards via SQUARE_TRACE_LOG or the
 * tools' --trace-log flag), reassembles them into traces by id, and
 * prints each trace as a time-ordered span listing with offsets
 * relative to the trace's first span:
 *
 *   trace 00000000075bcd15  3 spans  total 1873us
 *     +0us       1873us  client  request
 *     +12us         41us  router  resolve
 *     +55us       1790us  shard   analysis
 *
 * Aggregate mode folds every span with the same (comp, span) name into
 * one row with count / p50 / p99 / max of the durations — the quick
 * "where does the time go" view over thousands of traces.
 *
 *   square_trace /tmp/spans.ndjson
 *   square_trace --aggregate /tmp/spans.ndjson
 *
 * Flags:
 *   --aggregate     per-span duration statistics instead of per-trace
 *                   listings
 *   --trace=HEXID   only the trace(s) with this id (listing mode)
 *   FILE ...        span logs to read (default: stdin)
 *
 * Unparseable lines are counted and reported on stderr, never fatal: a
 * live fabric may still be appending while we read.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "service/protocol.h"

using namespace square;

namespace {

struct SpanRow {
    std::string comp;
    std::string span;
    long long startUs = 0;
    long long durUs = 0;
};

/** Span rows grouped by trace id, in id order (map keeps it stable). */
using TraceMap = std::map<std::string, std::vector<SpanRow>>;

/** Parse one NDJSON span line into (trace id, row); false to skip. */
bool
parseSpanLine(const std::string &line, std::string &trace_id,
              SpanRow &row)
{
    JsonRequest json;
    std::string error;
    if (!parseJsonLine(line, json, error))
        return false;
    if (!json.has("trace") || !json.has("span"))
        return false;
    trace_id = json.get("trace");
    row.comp = json.has("comp") ? json.get("comp") : "?";
    row.span = json.get("span");
    row.startUs = json.getInt<long long>("start_us");
    row.durUs = json.getInt<long long>("dur_us");
    return true;
}

size_t
readSpans(std::istream &in, TraceMap &traces, size_t &bad)
{
    size_t total = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string trace_id;
        SpanRow row;
        if (!parseSpanLine(line, trace_id, row)) {
            ++bad;
            continue;
        }
        traces[trace_id].push_back(std::move(row));
        ++total;
    }
    return total;
}

void
printListing(const TraceMap &traces, const std::string &only)
{
    for (const auto &[id, rows] : traces) {
        if (!only.empty() && id != only)
            continue;
        std::vector<SpanRow> sorted = rows;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const SpanRow &a, const SpanRow &b) {
                             return a.startUs < b.startUs;
                         });
        const long long t0 = sorted.front().startUs;
        // The trace's wall extent: first start to last span end.
        long long end = t0;
        for (const SpanRow &row : sorted)
            end = std::max(end, row.startUs + row.durUs);
        std::printf("trace %s  %zu span%s  total %lldus\n", id.c_str(),
                    sorted.size(), sorted.size() == 1 ? "" : "s",
                    end - t0);
        for (const SpanRow &row : sorted)
            std::printf("  +%-10lld %10lldus  %-7s %s\n",
                        row.startUs - t0, row.durUs, row.comp.c_str(),
                        row.span.c_str());
    }
}

void
printAggregate(const TraceMap &traces)
{
    // (comp, span) -> durations; map order gives a stable report.
    std::map<std::string, std::vector<double>> byName;
    for (const auto &[id, rows] : traces)
        for (const SpanRow &row : rows)
            byName[row.comp + "  " + row.span].push_back(
                static_cast<double>(row.durUs));
    std::printf("%-32s %8s %10s %10s %10s\n", "comp  span", "count",
                "p50_us", "p99_us", "max_us");
    for (auto &[name, durs] : byName) {
        std::sort(durs.begin(), durs.end());
        std::printf("%-32s %8zu %10.0f %10.0f %10.0f\n", name.c_str(),
                    durs.size(), percentileNearestRank(durs, 50.0),
                    percentileNearestRank(durs, 99.0), durs.back());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool aggregate = false;
    std::string only;
    std::vector<std::string> files;
    if (!parseFlags(argc, argv,
                    {switchFlag("aggregate", aggregate),
                     textFlag("trace", "HEXID", only)},
                    &files, "[FILE ...]"))
        return 1;

    TraceMap traces;
    size_t bad = 0;
    size_t total = 0;
    if (files.empty()) {
        total = readSpans(std::cin, traces, bad);
    } else {
        for (const std::string &path : files) {
            std::ifstream in(path);
            if (!in) {
                std::fprintf(stderr,
                             "square_trace: cannot open %s\n",
                             path.c_str());
                return 1;
            }
            total += readSpans(in, traces, bad);
        }
    }
    if (bad > 0)
        std::fprintf(stderr,
                     "square_trace: skipped %zu unparseable line%s\n",
                     bad, bad == 1 ? "" : "s");
    if (traces.empty()) {
        std::fprintf(stderr, "square_trace: no spans\n");
        return 1;
    }

    if (aggregate)
        printAggregate(traces);
    else
        printListing(traces, only);
    std::fprintf(stderr, "square_trace: %zu spans in %zu trace%s\n",
                 total, traces.size(), traces.size() == 1 ? "" : "s");
    return 0;
}
