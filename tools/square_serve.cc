/**
 * @file
 * square_serve: the compile service on stdin/stdout.
 *
 * Reads one newline-delimited JSON request per line (see
 * src/service/protocol.h for the request/reply grammar), serves each
 * through a process-lifetime CompileService — so repeated requests hit
 * the content-addressed result cache — and writes one JSON reply line
 * per request.  Requests are served one at a time, in order, each
 * through CompileService::submit, so the service runs one compile
 * worker.  Scriptable with no network dependency:
 *
 *   printf '%s\n' \
 *     '{"id":1,"workload":"ADDER4","policy":"square"}' \
 *     '{"id":2,"workload":"ADDER4","policy":"eager"}' \
 *     '{"id":3,"workload":"ADDER4","policy":"square"}' \
 *     '{"cmd":"stats"}' | square_serve
 *
 * Flags:
 *   --quiet       suppress the startup banner on stderr
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "service/protocol.h"
#include "service/service.h"

using namespace square;

int
main(int argc, char **argv)
{
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            std::fprintf(stderr, "usage: square_serve [--quiet]\n");
            return 1;
        }
    }

    CompileService service(1);
    if (!quiet) {
        std::fprintf(stderr,
                     "square_serve: one JSON request per line on stdin "
                     "({\"cmd\":\"stats\"} for counters)\n");
    }

    std::string line;
    while (std::getline(std::cin, line)) {
        if (isProtocolNoOp(line))
            continue;

        JsonRequest json;
        std::string error;
        if (!parseJsonLine(line, json, error)) {
            std::puts(formatError(json, error).c_str());
            std::fflush(stdout);
            continue;
        }
        if (json.has("cmd")) {
            const std::string cmd = json.get("cmd");
            if (cmd == "stats") {
                std::puts(formatStats(service.stats()).c_str());
            } else {
                std::puts(formatError(
                              json, "unknown cmd \"" + cmd + "\"")
                              .c_str());
            }
            std::fflush(stdout);
            continue;
        }

        CompileRequest req;
        if (!buildRequest(json, req, error)) {
            std::puts(formatError(json, error).c_str());
            std::fflush(stdout);
            continue;
        }
        ServiceReply reply = service.submit(req);
        std::puts(formatReply(json, reply).c_str());
        std::fflush(stdout);
    }

    // Final counters to stderr so piped stdout stays machine-parsable.
    if (!quiet) {
        ServiceStats s = service.stats();
        std::fprintf(stderr,
                     "square_serve: served %lld requests (%lld hits, "
                     "%lld compiles, %lld failures)\n",
                     static_cast<long long>(s.requests),
                     static_cast<long long>(s.hits),
                     static_cast<long long>(s.compiles),
                     static_cast<long long>(s.failures));
    }
    return 0;
}
