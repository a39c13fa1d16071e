/**
 * @file
 * square_client: stdin -> square_served -> stdout.
 *
 * Reads newline-delimited JSON requests from stdin, sends each over
 * one persistent TCP connection, and prints the server's reply lines
 * to stdout — the pipe-protocol ergonomics of square_serve, pointed at
 * the networked server.  Blank lines and '#' comments are skipped
 * locally, so annotated request files work unchanged.
 *
 *   square_client --port=7801 < requests.jsonl
 *
 * Flags:
 *   --host=A         server address (default 127.0.0.1)
 *   --port=N         server port (required)
 *   --max-retries=N  retry a request refused with a structured
 *                    {"status":"overloaded"} (admission shedding) or
 *                    {"status":"shard_down"} (fabric failover) reply,
 *                    up to N times (default 0 = print the refusal)
 *   --retry-seed=N   seed for the retry jitter (default 1); a fixed
 *                    seed replays the exact backoff schedule
 *   --trace-sample=N head-sample 1 in N compile requests: a fresh
 *                    trace_id is spliced into the outgoing line (the
 *                    router and shard pick it up and trace the same
 *                    request), and the client logs its own "request"
 *                    span covering send-to-reply (default 0 = off)
 *   --trace-log=PATH NDJSON span log destination (overrides the
 *                    SQUARE_TRACE_LOG environment variable)
 *
 * Retry discipline: the server's shed reply carries retry_after_ms —
 * its own estimate of when queue space frees up.  The client sleeps
 * that hint plus capped exponential backoff (doubling from 10 ms, cap
 * 2 s) with uniform jitter of up to half the backoff, so a herd of
 * shed clients does not reconverge on the same instant.  Retries
 * exhausted = the last overloaded reply is printed and the client
 * moves on (exit status unaffected: shedding is a structured answer,
 * not a transport failure).
 *
 * Exits non-zero if the connection cannot be established or drops
 * before every request is answered (a {"cmd":"shutdown"} request is
 * answered before the server closes the connection, so scripted
 * shutdown still exits 0).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "server/client.h"
#include "service/protocol.h"

using namespace square;

namespace {

/**
 * True for lines the client may trace: a compile request (no "cmd"
 * admin field, no pre-existing trace_id) that is a well-formed flat
 * object we can splice a field into.
 */
bool
isTraceableRequest(const std::string &line)
{
    return !line.empty() && line.back() == '}' &&
           line.find("\"cmd\"") == std::string::npos &&
           line.find("\"trace_id\"") == std::string::npos;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    long max_retries = 0;
    uint64_t retry_seed = 1;
    uint64_t trace_sample = 0;
    if (!parseFlags(
            argc, argv,
            {textFlag("host", "A", host), intFlag("port", port, 1, 65535),
             intFlag("max-retries", max_retries, 0,
                     std::numeric_limits<long>::max()),
             uintFlag("retry-seed", retry_seed),
             uintFlag("trace-sample", trace_sample),
             {"trace-log", "PATH",
              [](std::string_view path, std::string &why) {
                  return obs::TraceLog::instance().configure(
                      std::string(path), why);
              }}}))
        return 1;
    if (port == 0) {
        std::fprintf(stderr, "square_client: --port=N is required\n");
        return 1;
    }

    LineClient client;
    std::string error;
    if (!client.connect(host, port, error)) {
        std::fprintf(stderr, "square_client: %s\n", error.c_str());
        return 1;
    }

    setLogComponent("client");
    Rng jitter(retry_seed);
    obs::Sampler trace_sampler(trace_sample);
    std::string line;
    while (std::getline(std::cin, line)) {
        if (isProtocolNoOp(line))
            continue;
        // A sampled request gets a fresh trace_id spliced in before the
        // closing brace; the servers recognize the field and trace the
        // same request, so the client's span and the fabric's spans key
        // on one id.
        std::shared_ptr<obs::Trace> trace;
        if (isTraceableRequest(line) && trace_sampler.sample()) {
            trace = std::make_shared<obs::Trace>(obs::genTraceId(),
                                                 true);
            line.pop_back(); // reopen the object
            line += ", \"trace_id\": \"";
            line += obs::Trace::formatId(trace->id());
            line += "\"}";
        }
        obs::SpanClock request_t0;
        if (trace != nullptr)
            request_t0 = obs::SpanClock::now();
        std::string_view reply;
        long backoff_ms = 10;
        for (long attempt = 0;; ++attempt) {
            if (!client.sendLine(line)) {
                std::fprintf(stderr, "square_client: send failed\n");
                return 1;
            }
            // View-based receive: one growable buffer per connection,
            // no per-reply string allocation.
            if (!client.recvLineView(reply)) {
                std::fprintf(stderr,
                             "square_client: connection closed before "
                             "reply\n");
                return 1;
            }
            // Only the structured refusals are retried: admission
            // shedding ("overloaded") and fabric failover ("shard_down":
            // by the time the retry lands, the dead shard's keys have
            // re-routed to a survivor).
            uint64_t retry_after_ms = 0;
            if (attempt >= max_retries ||
                !parseRefusal(reply, retry_after_ms))
                break;
            // Sleep the server's hint plus exponential backoff with
            // jitter of up to half the backoff (all from one seeded
            // generator, so the schedule replays exactly).
            long sleep_ms =
                static_cast<long>(retry_after_ms) + backoff_ms +
                static_cast<long>(jitter.below(
                    static_cast<uint64_t>(backoff_ms / 2 + 1)));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleep_ms));
            backoff_ms = std::min(backoff_ms * 2, 2000L);
        }
        if (trace != nullptr) {
            // Client-observed latency: send to final reply, retries and
            // backoff sleeps included.
            trace->addSpan("request", request_t0.wallUs,
                           obs::microsSince(request_t0));
            obs::TraceLog::instance().emit(*trace, "client");
        }
        std::fwrite(reply.data(), 1, reply.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    }
    return 0;
}
