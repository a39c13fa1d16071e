/**
 * @file
 * square_serve: the compile service on stdin/stdout.
 *
 * Reads one newline-delimited JSON request per line (see
 * src/service/protocol.h for the request/reply grammar) and answers
 * each through CompileServer::handleLine — the same protocol core as
 * square_served, without a socket — so repeated requests hit the
 * content-addressed result cache and every command (stats, metrics,
 * ping, dump, shutdown) behaves as on the daemon.  Requests are served
 * one at a time, in order, on one compile worker, until EOF or a
 * {"cmd":"shutdown"}.  Scriptable with no network dependency:
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
#include <iostream>
#include <string>

#include "common/flags.h"
#include "server/server.h"

using namespace square;

int
main(int argc, char **argv)
{
    bool quiet = false;
    if (!parseFlags(argc, argv, {switchFlag("quiet", quiet)}))
        return 1;

    CompileServer server(ServerConfig{});
    if (!quiet) {
        std::fprintf(stderr,
                     "square_serve: one JSON request per line on stdin "
                     "({\"cmd\":\"stats\"} for counters)\n");
    }

    std::string line;
    bool close_conn = false;
    while (!close_conn && std::getline(std::cin, line)) {
        const std::string reply = server.handleLine(line, close_conn);
        if (reply.empty())
            continue; // a protocol no-op: comment or blank line
        std::puts(reply.c_str());
        std::fflush(stdout);
    }

    // Final counters to stderr so piped stdout stays machine-parsable.
    if (!quiet) {
        ServiceStats s = server.service().stats();
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
