/**
 * @file
 * The three workloads and the layer probes they share.
 *
 *   compile_suite  closed loop of compile() over the paper set plus a
 *                  seeded synthetic draw (in-process, one thread)
 *   serve_warm     closed loop, 2 connections x depth 8, all hits,
 *                  through a 2-shard fabric
 *   serve_mixed    open loop at a fixed rate, Zipf keys over a key set
 *                  larger than the shard caches (hits, misses and
 *                  evictions), through the same fabric
 *
 * An untraced run sets every end-to-end metric; a traced run sets every
 * per-layer metric (see report.h for both catalogues).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <vector>

#include "core/compiler.h"
#include "fabric.h"
#include "report.h"
#include "targets.h"

namespace perfbench {

void runCompileSuite(RunContext &ctx);
void runServeWarm(RunContext &ctx);
void runServeMixed(RunContext &ctx);

/**
 * Set the output-quality metrics from verified results: AQV and depth
 * geomeans over every target, swaps over lattice targets, and the
 * analytical success estimate over NISQ-scale targets.
 */
void setQualityMetrics(Report &report, const std::vector<Target> &targets,
                       const std::vector<square::CompileResult> &results);

/**
 * Compile every target round-robin for @p seconds (at least 3 rounds),
 * recalibrating every 100 ms (report.h), so each target's samples span
 * the host's speed phases.  Returns each target's median calibrated
 * milliseconds; @p results gets the results.
 */
std::vector<double> timeCompiles(const std::vector<Target> &targets,
                                 double seconds,
                                 std::vector<square::CompileResult> &results);

/**
 * Traced runs: latency percentiles, each only when at least ten
 * samples lie beyond it (0 otherwise, with the sample count beside
 * it): p50 and p99 of the workload's operation latency, the cold-reply
 * p50 and p99, and how late the open-loop generator sent.
 */
void setTailMetrics(Report &report, const std::vector<double> &ops_ms,
                    const std::vector<double> &cold_ms,
                    const std::vector<double> &late_ms);

/** The counters one fabric exposes, at one instant. */
struct FabricSnapshot
{
    Counters routerStats;
    Counters routerMetrics;
    /** Shard metrics: counters summed, quantiles maxed over shards. */
    Counters shardMetrics;
    /** CPU seconds consumed so far by the router and shard daemons. */
    double cpuSeconds = 0;
};

bool snapshot(const Fabric &fabric, FabricSnapshot &out,
              std::string &error);

/**
 * Set the service.* and server.* counter metrics from the fabric's
 * deltas over a phase in which the client sent @p requests requests.
 */
void setFabricLayerMetrics(Report &report, const FabricSnapshot &before,
                           const FabricSnapshot &after, double requests);

/**
 * Traced only: the ir/core/route metrics over the paper set, measured
 * from spans around ProgramAnalysis and compile() with a borrowed
 * analysis.
 */
void probeCoreLayers(RunContext &ctx);

/**
 * Traced only: the five-row layer ladder on the NISQ key set —
 * compile(), CompileService::submit hit, CompileServer::handleLineTo,
 * the direct shard round trip, the round trip via the router — plus
 * service.hit_us/miss_ms and the server.* differences between rows.
 * Returns the number of requests it sent over loopback.
 */
double probeLadder(RunContext &ctx, const Fabric &fabric);

/** Write the run's spans next to its state and count them. */
void finishSpans(RunContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
