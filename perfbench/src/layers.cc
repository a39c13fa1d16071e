/**
 * @file
 * Measurements shared by the workloads: output quality, fabric counter
 * deltas, and the traced layer probes (core layers and the ladder).
 */

#include <memory>
#include <string_view>

#include "common/logging.h"
#include "gen.h"
#include "ir/analysis.h"
#include "noise/analytical.h"
#include "server/client.h"
#include "server/server.h"
#include "service/service.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using square::CompileResult;

void
setQualityMetrics(Report &report, const std::vector<Target> &targets,
                  const std::vector<CompileResult> &results)
{
    std::vector<double> aqv;
    std::vector<double> depth;
    std::vector<double> swaps;
    std::vector<double> success;
    // Fig. 8b's calibration of the analytical model.
    const square::DeviceParams device =
        square::DeviceParams::analyticalModel();
    for (size_t i = 0; i < targets.size(); ++i) {
        const CompileResult &r = results[i];
        aqv.push_back(static_cast<double>(r.aqv));
        depth.push_back(static_cast<double>(r.depth));
        if (targets[i].lattice())
            swaps.push_back(static_cast<double>(r.swaps));
        if (targets[i].nisqScale)
            success.push_back(square::estimateSuccess(r, device).total);
    }
    report.set("aqv_geomean", geomean(aqv));
    report.set("depth_geomean", geomean(depth));
    report.set("swaps_geomean", geomean(swaps));
    report.set("nisq_success_geomean", geomean(success));
}

std::vector<double>
timeCompiles(const std::vector<Target> &targets, double seconds,
             std::vector<CompileResult> &results)
{
    std::vector<square::Machine> machines;
    for (const Target &t : targets)
        machines.push_back(t.request.machine.build());
    results.assign(targets.size(), CompileResult{});
    std::vector<std::vector<double>> ms(targets.size());
    const int64_t t0 = nowNs();
    int64_t calibrated_at = 0;
    double scale = 1.0;
    for (int round = 0;
         round < 3 || static_cast<double>(nowNs() - t0) / 1e9 < seconds;
         ++round) {
        if (nowNs() - calibrated_at > 100'000'000) {
            scale = kReferenceNominalMs / referenceKernelMs();
            calibrated_at = nowNs();
        }
        for (size_t i = 0; i < targets.size(); ++i) {
            int64_t c0 = nowNs();
            results[i] = square::compile(*targets[i].program, machines[i],
                                         targets[i].request.cfg);
            ms[i].push_back(scale * static_cast<double>(nowNs() - c0) /
                            1e6);
        }
    }
    std::vector<double> medians;
    for (const std::vector<double> &v : ms)
        medians.push_back(median(v));
    return medians;
}

void
setTailMetrics(Report &report, const std::vector<double> &ops_ms,
               const std::vector<double> &cold_ms,
               const std::vector<double> &late_ms)
{
    auto supported = [](const Percentile &p) {
        return p.supported ? p.value : 0.0;
    };
    report.set("latency.p50_ms", supported(percentile(ops_ms, 50)));
    Percentile p99 = percentile(ops_ms, 99);
    report.set("latency.p99_ms", supported(p99));
    report.set("latency.p99_samples", static_cast<double>(p99.samples));
    report.set("mixed_cold_p50_ms", supported(percentile(cold_ms, 50)));
    report.set("mixed_cold_p99_ms", supported(percentile(cold_ms, 99)));
    report.set("mixed_cold_samples", static_cast<double>(cold_ms.size()));
    report.set("bench.generator_late_ms.p99",
               supported(percentile(late_ms, 99)));
    report.set("bench.generator_late_ms.max",
               late_ms.empty()
                   ? 0
                   : *std::max_element(late_ms.begin(), late_ms.end()));
}

bool
snapshot(const Fabric &fabric, FabricSnapshot &out, std::string &error)
{
    out = FabricSnapshot{};
    out.cpuSeconds = cpuSeconds(fabric.routerPid());
    for (pid_t pid : fabric.shardPids())
        out.cpuSeconds += cpuSeconds(pid);
    if (!fetchStats(fabric.routerPort(), out.routerStats, error) ||
        !fetchMetrics(fabric.routerPort(), out.routerMetrics, error))
        return false;
    for (uint16_t port : fabric.shardPorts()) {
        Counters shard;
        if (!fetchMetrics(port, shard, error))
            return false;
        for (const auto &[name, value] : shard) {
            bool quantile = name.find(":q") != std::string::npos;
            double &slot = out.shardMetrics[name];
            slot = quantile ? std::max(slot, value) : slot + value;
        }
    }
    return true;
}

void
setFabricLayerMetrics(Report &report, const FabricSnapshot &before,
                      const FabricSnapshot &after, double requests)
{
    auto stats = [&](const char *name) {
        return delta(before.routerStats, after.routerStats, name);
    };
    auto both = [&](const std::string &name) {
        return delta(before.routerMetrics, after.routerMetrics, name) +
               delta(before.shardMetrics, after.shardMetrics, name);
    };
    auto shards = [&](const std::string &name) {
        return delta(before.shardMetrics, after.shardMetrics, name);
    };
    const double served = stats("requests");
    report.set("service.hit_rate", served > 0 ? stats("hits") / served : 0);
    report.set("service.compiles", stats("compiles"));
    report.set("service.evictions", stats("evictions"));
    report.set("service.shed", stats("shed"));
    const double waits = shards("square_service_queue_wait_us_count");
    report.set("service.queue_wait_ms",
               waits > 0 ? shards("square_service_queue_wait_us_sum") /
                               waits / 1000.0
                         : 0);
    report.set("service.store_appended",
               shards("square_store_appended_total"));
    report.set("service.store_append_bytes",
               shards("square_store_append_bytes_total"));
    const double syscalls = both("square_transport_read_calls_total") +
                            both("square_transport_write_calls_total");
    report.set("server.syscalls_per_req",
               requests > 0 ? syscalls / requests : 0);
    report.set("server.cpu_us_per_req",
               requests > 0
                   ? (after.cpuSeconds - before.cpuSeconds) * 1e6 / requests
                   : 0);
    const double writes = both("square_transport_write_calls_total");
    report.set("server.replies_per_write",
               writes > 0 ? both("square_transport_batched_replies_total") /
                                writes
                          : 0);
    auto rtt = after.routerMetrics.find("square_upstream_forward_rtt_us:q0.5");
    report.set("server.forward_rtt_us",
               rtt == after.routerMetrics.end() ? 0 : rtt->second);
    report.set("server.shard_down_replies", stats("shard_down_replies"));
    report.set("server.reconnects", stats("reconnects"));
}

void
probeCoreLayers(RunContext &ctx)
{
    constexpr int kRounds = 3;
    ProgramBuilder programs;
    std::vector<Target> targets = paperTargets(programs);
    std::vector<square::Machine> machines;
    for (const Target &t : targets)
        machines.push_back(t.request.machine.build());

    // Span indices of each target's analysis and compile, per round.
    std::vector<std::vector<int64_t>> analysis_spans(targets.size());
    std::vector<std::vector<int64_t>> compile_spans(targets.size());
    std::vector<CompileResult> results(targets.size());
    SpanLog log(true);
    uint64_t request = 0;
    for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < targets.size(); ++i) {
            ++request;
            ScopedSpan call(log, "probe.compile_call", request);
            int64_t a = log.begin("ir.analysis", request, call.index());
            square::ProgramAnalysis analysis(*targets[i].program);
            log.end(a);
            int64_t c = log.begin("core.compile", request, call.index());
            square::CompileOptions opts;
            opts.analysis = &analysis;
            results[i] = square::compile(*targets[i].program, machines[i],
                                         targets[i].request.cfg, opts);
            log.end(c);
            analysis_spans[i].push_back(a);
            compile_spans[i].push_back(c);
        }
    }
    std::vector<int64_t> self = selfTimesNs(log.spans());
    auto median_ms = [&](const std::vector<int64_t> &spans) {
        std::vector<double> ms;
        for (int64_t s : spans)
            ms.push_back(static_cast<double>(self[static_cast<size_t>(s)]) /
                         1e6);
        return median(ms);
    };
    std::vector<double> analysis_ms;
    std::vector<double> lattice_ms;
    std::vector<double> braid_ms;
    double reclaims = 0, skips = 0, uncompute = 0, qubits = 0, peak = 0;
    double swaps = 0, lattice_gates = 0, braid_len = 0, braid_count = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
        const CompileResult &r = results[i];
        analysis_ms.push_back(median_ms(analysis_spans[i]));
        (targets[i].braid() ? braid_ms : lattice_ms)
            .push_back(median_ms(compile_spans[i]));
        reclaims += r.reclaimCount;
        skips += r.skipCount;
        uncompute += static_cast<double>(r.uncomputeIrGates);
        qubits += r.qubitsUsed;
        peak += r.peakLive;
        if (targets[i].lattice()) {
            swaps += static_cast<double>(r.swaps);
            lattice_gates += static_cast<double>(r.gates);
        } else {
            braid_len += r.avgBraidLength;
            braid_count += 1;
        }
    }
    Report &report = ctx.report;
    report.set("ir.analysis_ms", geomean(analysis_ms));
    report.set("core.compile_ms.lattice", geomean(lattice_ms));
    report.set("core.compile_ms.braid", geomean(braid_ms));
    report.set("core.reclaims", reclaims);
    report.set("core.skips", skips);
    report.set("core.reclaim_ratio",
               reclaims + skips > 0 ? reclaims / (reclaims + skips) : 0);
    report.set("core.uncompute_gates", uncompute);
    report.set("core.qubits_used", qubits);
    report.set("core.peak_live", peak);
    report.set("route.swaps", swaps);
    report.set("route.swaps_per_gate",
               lattice_gates > 0 ? swaps / lattice_gates : 0);
    report.set("route.braid_length_avg",
               braid_count > 0 ? braid_len / braid_count : 0);
    ctx.spans.append(std::move(log));
}

namespace {

/** Median microseconds of @p reps calls of @p fn, each under a span. */
template <typename Fn>
double
medianUs(SpanLog &log, const char *span, uint64_t request, int reps, Fn fn)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        int64_t s = log.begin(span, request);
        int64_t t0 = nowNs();
        fn();
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        log.end(s);
    }
    return median(us);
}

/** Median depth-1 round trip of @p line on @p client, microseconds. */
double
roundTripUs(RunContext &ctx, square::LineClient &client,
            const std::string &line, const char *span, uint64_t request,
            int reps)
{
    std::string reply;
    // The first exchange may compile; every timed one must hit.
    if (!client.sendLine(line) || !client.recvLine(reply))
        square::fatal("perfbench: ladder connection failed");
    return medianUs(ctx.spans, span, request, reps, [&] {
        ctx.report.attempt();
        if (!client.sendLine(line) || !client.recvLine(reply) ||
            reply.find("\"cache\": \"hit\"") == std::string::npos)
            ctx.report.fail("ladder: round trip did not hit: " + reply);
    });
}

} // namespace

double
probeLadder(RunContext &ctx, const Fabric &fabric)
{
    constexpr int kReps = 200;
    constexpr int kMissReps = 3;
    ProgramBuilder programs;
    std::vector<Target> targets = nisqTargets(programs);
    std::vector<double> rows[5];
    std::vector<double> miss_ms;
    double requests = 0;

    square::ServerConfig server_cfg;
    server_cfg.shards = 1;
    square::CompileServer server(server_cfg);
    square::CompileService service(1);
    square::LineClient direct;
    square::LineClient routed;
    std::string error;
    if (!direct.connect("127.0.0.1", fabric.shardPorts().at(0), error) ||
        !routed.connect("127.0.0.1", fabric.routerPort(), error))
        square::fatal("perfbench: ladder connect: ", error);
    direct.setRecvTimeoutMs(10000);
    routed.setRecvTimeoutMs(10000);

    uint64_t request = 0;
    for (const Target &t : targets) {
        ++request;
        const square::Machine machine = t.request.machine.build();
        CompileResult result;
        rows[0].push_back(medianUs(ctx.spans, "ladder.compile", request,
                                   5, [&] {
                                       result = square::compile(
                                           *t.program, machine,
                                           t.request.cfg);
                                   }));

        // service.miss_ms: a miss on a fresh service, minus compile().
        for (int i = 0; i < kMissReps; ++i) {
            square::CompileService fresh(1);
            int64_t c0 = nowNs();
            square::compile(*t.program, machine, t.request.cfg);
            int64_t c1 = nowNs();
            square::ServiceReply miss = fresh.submit(t.request);
            int64_t c2 = nowNs();
            ctx.spans.add("ladder.submit_miss", c1, c2, request);
            miss_ms.push_back(static_cast<double>((c2 - c1) - (c1 - c0)) /
                              1e6);
            ctx.report.attempt();
            if (miss.result == nullptr || miss.hit)
                ctx.report.fail("ladder: submit on a new key did not miss");
        }

        service.submit(t.request);
        rows[1].push_back(medianUs(ctx.spans, "ladder.submit_hit", request,
                                   kReps, [&] {
                                       square::ServiceReply r =
                                           service.submit(t.request);
                                       ctx.report.attempt();
                                       if (!r.hit)
                                           ctx.report.fail(
                                               "ladder: submit missed");
                                   }));

        const std::string line = requestLine(t, request);
        std::string out;
        bool close_conn = false;
        server.handleLineTo(line, out, close_conn, nullptr);
        rows[2].push_back(medianUs(ctx.spans, "ladder.handle_line",
                                   request, kReps, [&] {
                                       out.clear();
                                       server.handleLineTo(line, out,
                                                           close_conn,
                                                           nullptr);
                                   }));
        ctx.report.attempt();
        if (out.find("\"cache\": \"hit\"") == std::string::npos)
            ctx.report.fail("ladder: handleLineTo did not hit: " + out);

        rows[3].push_back(roundTripUs(ctx, direct, line,
                                      "ladder.shard_direct", request,
                                      kReps));
        rows[4].push_back(roundTripUs(ctx, routed, line,
                                      "ladder.via_router", request, kReps));
        requests += 2.0 * (kReps + 1);
    }

    Report &report = ctx.report;
    const char *names[5] = {"ladder.1_compile_us", "ladder.2_submit_hit_us",
                            "ladder.3_handle_line_us",
                            "ladder.4_shard_direct_us",
                            "ladder.5_via_router_us"};
    double row[5];
    for (int i = 0; i < 5; ++i) {
        row[i] = median(rows[i]);
        report.set(names[i], row[i]);
    }
    report.set("service.hit_us", row[1]);
    report.set("service.miss_ms", median(miss_ms));
    report.set("server.handle_line_us", row[2]);
    report.set("server.shard_rtt_us", row[3] - row[2]);
    report.set("server.router_hop_us", row[4] - row[3]);
    return requests;
}

void
finishSpans(RunContext &ctx)
{
    const std::string path = ctx.stateDir + "/spans.ndjson";
    if (!writeSpans(path, ctx.spans.spans()))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    ctx.report.set("bench.spans",
                   static_cast<double>(ctx.spans.spans().size()));
}

} // namespace perfbench
