/**
 * @file
 * Compile-service throughput: cold (cache-miss) versus warm
 * (content-addressed hit) serving of a repeated-request batch.
 *
 * The production traffic shape SQUARE targets is many clients asking
 * for the *same* modular programs under the same policy/machine
 * configurations; the service answers repeats from its
 * content-addressed cache without recompiling.  This bench measures
 * exactly that amortization:
 *
 *   cold:  a fresh CompileService serving the batch's unique requests
 *          through submitBatch() (every one a miss, compiled in
 *          parallel on the service's worker pool);
 *   warm:  the same service serving the full repeated batch through
 *          submit() (every request a hit).
 *
 * Reported gates/s counts *served* instructions — a cache hit delivers
 * the same compiled artifact as the compilation that produced it, so
 * the served work is the same; only the serving cost collapses.  The
 * bench golden-checks that collapse is sound: every warm artifact is
 * compared field-by-field against a fresh compile() of the same
 * request (process exits non-zero on any mismatch).
 *
 * Pass --square_json=PATH for a BENCH_service_throughput.json with
 * cold/warm rows, the hit rate, and warm-over-cold; --repeat=N scales
 * the batch; --workers=N the worker pool; --smoke shrinks for CI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "service/service.h"

using namespace square;
using namespace square::bench;

namespace {

using Clock = std::chrono::steady_clock;

CompileRequest
namedRequest(const std::string &workload, const SquareConfig &cfg)
{
    CompileRequest req;
    req.label = workload + "/" + cfg.name;
    req.workload = workload;
    req.machine = MachineSpec::paperFor(findBenchmark(workload));
    req.cfg = cfg;
    return req;
}

/** Golden check: a cached artifact equals a fresh compile(). */
bool
identicalToFresh(const CompileRequest &req, const CompileResult &got)
{
    Program prog = makeBenchmark(req.workload);
    Machine machine = req.machine.build();
    CompileResult fresh = compile(prog, machine, req.cfg, {});
    return got.gates == fresh.gates && got.swaps == fresh.swaps &&
           got.depth == fresh.depth && got.aqv == fresh.aqv &&
           got.qubitsUsed == fresh.qubitsUsed &&
           got.peakLive == fresh.peakLive &&
           got.reclaimCount == fresh.reclaimCount &&
           got.skipCount == fresh.skipCount &&
           got.commFactor == fresh.commFactor &&
           got.primaryInitialSites == fresh.primaryInitialSites &&
           got.primaryFinalSites == fresh.primaryFinalSites;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = extractJsonPath(argc, argv);
    int repeat = 8;
    int workers = 4;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
            repeat = std::atoi(argv[i] + 9);
        } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
            workers = std::atoi(argv[i] + 10);
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            repeat = 2;
            workers = 2;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 1;
        }
    }
    if (repeat < 1 || workers < 1) {
        std::fprintf(stderr, "--repeat and --workers must be >= 1\n");
        return 1;
    }

    const unsigned cpus = std::thread::hardware_concurrency();
    printHeader("Compile-service throughput, cold vs warm cache",
                "the repeated-request serving scenario");
    warnIfSingleCore(cpus);

    // The batch: three mixed workloads under the SQUARE policy, each
    // repeated; uniques compile once, repeats hit the cache.
    const std::vector<std::string> workloads = {"SHA2", "SALSA20",
                                                "Belle"};
    std::vector<CompileRequest> uniques;
    for (const std::string &w : workloads)
        uniques.push_back(namedRequest(w, SquareConfig::square()));
    std::vector<CompileRequest> batch;
    for (int r = 0; r < repeat; ++r)
        for (const CompileRequest &u : uniques)
            batch.push_back(u);

    std::printf("batch: (SHA2 + SALSA20 + Belle) x SQUARE x %d = %zu "
                "requests (%zu unique); %d pool workers; host cpus: "
                "%u\n\n",
                repeat, batch.size(), uniques.size(), workers, cpus);

    CompileService service(workers);

    // -- cold: every unique request misses and compiles ----------------
    Clock::time_point t0 = Clock::now();
    std::vector<ServiceReply> cold = service.submitBatch(uniques);
    const double cold_ms = millisSince(t0);
    int64_t unique_issued = 0;
    for (const ServiceReply &r : cold) {
        if (!r.error.empty()) {
            std::fprintf(stderr, "cold request failed: %s\n",
                         r.error.c_str());
            return 1;
        }
        unique_issued += r.result->gates + r.result->swaps;
    }
    const double cold_gps = cold_ms > 0
                                ? static_cast<double>(unique_issued) /
                                      (cold_ms / 1000.0)
                                : 0.0;

    // -- warm: the full repeated batch, served from the cache ----------
    std::vector<double> latencies;
    latencies.reserve(batch.size());
    int64_t served_issued = 0;
    int warm_hits = 0;
    t0 = Clock::now();
    for (const CompileRequest &req : batch) {
        ServiceReply r = service.submit(req);
        if (!r.error.empty()) {
            std::fprintf(stderr, "warm request failed: %s\n",
                         r.error.c_str());
            return 1;
        }
        served_issued += r.result->gates + r.result->swaps;
        latencies.push_back(r.millis);
        warm_hits += r.hit ? 1 : 0;
    }
    const double warm_ms = millisSince(t0);
    const double warm_gps = warm_ms > 0
                                ? static_cast<double>(served_issued) /
                                      (warm_ms / 1000.0)
                                : 0.0;
    const double hit_rate =
        static_cast<double>(warm_hits) /
        static_cast<double>(batch.size());
    const double warm_over_cold =
        cold_gps > 0 ? warm_gps / cold_gps : 0.0;
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentileNearestRank(latencies, 50.0);
    const double p99 = percentileNearestRank(latencies, 99.0);

    // -- golden check: cached artifacts == fresh compiles --------------
    for (const CompileRequest &u : uniques) {
        ServiceReply r = service.submit(u);
        if (!r.hit || !identicalToFresh(u, *r.result)) {
            std::fprintf(stderr,
                         "GOLDEN MISMATCH: cached %s differs from a "
                         "fresh compile()\n",
                         u.label.c_str());
            return 1;
        }
    }

    std::printf("%8s %10s %12s %14s %10s %10s\n", "phase", "requests",
                "wall ms", "gates/s", "p50 ms", "p99 ms");
    printRule(72);
    std::printf("%8s %10zu %12.1f %14.0f %10s %10s\n", "cold",
                uniques.size(), cold_ms, cold_gps, "-", "-");
    std::printf("%8s %10zu %12.1f %14.0f %10.3f %10.3f\n", "warm",
                batch.size(), warm_ms, warm_gps, p50, p99);
    printRule(72);
    std::printf("\nhit rate (warm phase): %.3f   warm/cold throughput: "
                "%.1fx\ncache hits golden-checked bit-identical to "
                "fresh compile(): yes\n",
                hit_rate, warm_over_cold);

    if (!json_path.empty()) {
        ServiceStats s = service.stats();
        JsonReport report;
        report.benchmark = "service_throughput";
        report.unit = "gates_per_second";
        report.header.push_back(jsonInt("cpus", cpus));
        report.header.push_back(jsonInt("workers", workers));
        report.header.push_back(
            jsonInt("unique_requests",
                    static_cast<int64_t>(uniques.size())));
        report.header.push_back(
            jsonInt("warm_requests",
                    static_cast<int64_t>(batch.size())));
        report.header.push_back(jsonNum("hit_rate", hit_rate, 3));
        report.header.push_back(
            jsonNum("warm_over_cold", warm_over_cold, 1));
        report.header.push_back(jsonInt("compiles", s.compiles));
        report.header.push_back(
            jsonInt("analysis_computes", s.analysisComputes));
        report.header.push_back(jsonInt("golden_identical", 1));
        report.addRow({jsonStr("phase", "cold"),
                       jsonInt("requests",
                               static_cast<int64_t>(uniques.size())),
                       jsonNum("wall_ms", cold_ms, 1),
                       jsonNum("gates_per_s", cold_gps, 0)});
        report.addRow({jsonStr("phase", "warm"),
                       jsonInt("requests",
                               static_cast<int64_t>(batch.size())),
                       jsonNum("wall_ms", warm_ms, 1),
                       jsonNum("gates_per_s", warm_gps, 0),
                       jsonNum("p50_ms", p50, 3),
                       jsonNum("p99_ms", p99, 3)});
        report.writeTo(json_path);
    }
    return 0;
}
