/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload compile_suite|serve_warm|serve_mixed
 *             --seed N --seconds S --trace 0|1
 *             --state-root DIR [--git DESCRIBE]
 *
 * The first stdout line is a header (host parallelism, compiler, build,
 * seed); the last is the result object.  A run that fails any output
 * check prints "correct": false and exits 1.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_DAEMON_DIR
#define PERFBENCH_DAEMON_DIR "."
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/** A seed kept out of every tuning run (see README.md). */
constexpr uint64_t kHeldOutSeed = 20261016;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload compile_suite|serve_warm|"
                 "serve_mixed --seed N --seconds S --trace 0|1 "
                 "--state-root DIR [--git DESCRIBE]\n");
    return 2;
}

bool
parseU64(const char *text, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    std::string state_root;
    std::string git = "unknown";
    uint64_t trace = 0;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        uint64_t n = 0;
        if (flag == "--workload") {
            ctx.workload = value;
        } else if (flag == "--seed" && parseU64(value, n)) {
            ctx.seed = n;
            have_seed = true;
        } else if (flag == "--seconds" && parseU64(value, n) && n > 0) {
            ctx.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && parseU64(value, trace) && trace <= 1) {
            ctx.trace = trace == 1;
        } else if (flag == "--state-root") {
            state_root = value;
        } else if (flag == "--git") {
            git = value;
        } else {
            return usage();
        }
    }
    void (*run)(RunContext &) = nullptr;
    if (ctx.workload == "compile_suite")
        run = runCompileSuite;
    else if (ctx.workload == "serve_warm")
        run = runServeWarm;
    else if (ctx.workload == "serve_mixed")
        run = runServeMixed;
    if (run == nullptr || !have_seed || state_root.empty() || argc % 2 == 0)
        return usage();

    ctx.daemonDir = PERFBENCH_DAEMON_DIR;
    ctx.stateDir = state_root + "/" + ctx.workload + "-seed" +
                   std::to_string(ctx.seed) + "-trace" +
                   std::to_string(trace) + "-" +
                   std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(ctx.stateDir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     ctx.stateDir.c_str());
        return 2;
    }
    ctx.spans = SpanLog(ctx.trace);

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double parallelism = measureParallelism(static_cast<int>(nproc));
    std::printf("{\"header\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"held_out_seed\": %llu, \"seconds\": %.0f, \"trace\": %s, "
                "\"nproc\": %u, \"parallelism\": %.2f, \"compiler\": "
                "\"g++ %s\", \"build_type\": \"%s\", \"git\": \"%s\"}}\n",
                ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed),
                static_cast<unsigned long long>(kHeldOutSeed), ctx.seconds,
                ctx.trace ? "true" : "false", nproc, parallelism,
                __VERSION__, PERFBENCH_BUILD_TYPE, git.c_str());
    std::fflush(stdout);
    if (parallelism < 0.75 * nproc)
        std::fprintf(stderr,
                     "perfbench: measured parallelism %.2f of %u cpus: the "
                     "host is partly serialized\n",
                     parallelism, nproc);

    run(ctx);

    Report &report = ctx.report;
    if (report.attempted() == 0)
        report.fail("nothing was attempted");
    report.set("ok_frac",
               report.attempted() > 0
                   ? static_cast<double>(report.attempted() -
                                         report.failed()) /
                         static_cast<double>(report.attempted())
                   : 0.0);
    report.set("bench.parallelism", parallelism);

    // Keep the spans; drop the fabric state (stores, logs, ports).
    for (const auto &entry :
         std::filesystem::directory_iterator(ctx.stateDir, ec)) {
        if (entry.path().filename().string().rfind("fabric", 0) == 0)
            std::filesystem::remove_all(entry.path(), ec);
    }
    if (!ctx.trace)
        std::filesystem::remove_all(ctx.stateDir, ec);

    if (!report.print(ctx.trace ? perLayerMetrics() : endToEndMetrics()))
        return 2;
    return report.failed() == 0 ? 0 : 1;
}
