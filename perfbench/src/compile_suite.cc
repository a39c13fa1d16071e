/**
 * @file
 * compile_suite: the paper's product, compiled in a closed loop.
 *
 * Rounds of compile() under SQUARE over three program sets: the 17
 * Table II programs on their paper NISQ lattices, the 10 non-NISQ
 * programs on the Fig. 10 braid machines, and a seeded draw of small
 * synthetic shapes.  This is the only workload where ir, core, route
 * and schedule do the work.
 */

#include <unistd.h>

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "gen.h"
#include "ir/analysis.h"
#include "stats.h"
#include "workloads.h"
#include "workloads/synthetic.h"

namespace perfbench {

namespace {

using square::CompileResult;
using square::Machine;

constexpr int kSyntheticPrograms = 6;
constexpr int kSetupReps = 7;
/** p99 needs 1000 samples plus 10 beyond it. */
constexpr size_t kMinCalls = 1100;

struct Entry
{
    Target target;
    Machine machine;
    /** In the paper set (timing and quality metrics cover these only). */
    bool paper = false;
};

std::vector<Entry>
buildSuite(uint64_t seed)
{
    ProgramBuilder programs;
    std::vector<Entry> suite;
    for (Target &t : paperTargets(programs)) {
        Machine m = t.request.machine.build();
        suite.push_back({std::move(t), std::move(m), true});
    }
    std::vector<square::SynthParams> shapes =
        synthShapes(streamSeed(seed, Stream::SynthShapes),
                    kSyntheticPrograms);
    for (size_t i = 0; i < shapes.size(); ++i) {
        const std::string name = "synth" + std::to_string(i);
        auto prog = std::make_shared<const square::Program>(
            square::makeSynthetic(name, shapes[i]));
        // A lattice every policy fits: primaries plus the lazy
        // (never-reclaim) ancilla demand.
        square::ProgramAnalysis analysis(*prog);
        int64_t need = prog->numPrimary() +
                       analysis.stats(prog->entry).lazyAncilla;
        int edge = std::max(
            5, static_cast<int>(std::ceil(std::sqrt(double(need)))) + 1);
        Target t;
        t.workload = name;
        t.machine = "nisq:" + std::to_string(edge) + "x" +
                    std::to_string(edge);
        std::string error;
        if (!resolve(t, prog, error))
            square::fatal("perfbench: bad synthetic target: ", error);
        Machine m = t.request.machine.build();
        suite.push_back({std::move(t), std::move(m), false});
    }
    return suite;
}

} // namespace

void
runCompileSuite(RunContext &ctx)
{
    Report &report = ctx.report;

    // Set-up: building every program and machine, repeated, each build
    // calibrated like the compile timings (report.h).
    std::vector<Entry> suite;
    std::vector<double> setups;
    for (int r = 0; r < kSetupReps; ++r) {
        const double scale = kReferenceNominalMs / referenceKernelMs();
        int64_t t0 = nowNs();
        suite = buildSuite(ctx.seed);
        setups.push_back(scale * static_cast<double>(nowNs() - t0) / 1e9);
    }
    report.set("setup_s", median(setups));

    // Oracle, untimed: each program on its machine's macro twin must
    // reclaim only clean qubits and compute the reference outputs.
    const uint64_t input_seed = streamSeed(ctx.seed, Stream::OracleInputs);
    for (size_t i = 0; i < suite.size(); ++i) {
        report.attempt();
        std::string why = checkFunctional(suite[i].target, input_seed + i);
        if (!why.empty())
            report.fail(suite[i].target.workload + " on " +
                        suite[i].target.machine + ": " + why);
    }

    // The reference round every timed round must reproduce exactly.
    std::vector<CompileResult> reference;
    for (const Entry &e : suite)
        reference.push_back(square::compile(*e.target.program, e.machine,
                                            e.target.request.cfg));

    // Timing metrics cover the paper set, whose composition is the same
    // for every seed; the seeded synthetic draw is compiled and checked
    // in every round too.  Each round's times are calibrated by the
    // reference kernel run just before it (see report.h).
    std::vector<std::vector<double>> per_target(suite.size());
    std::vector<double> reference_ms;
    std::vector<double> plain_ms;
    std::vector<double> traced_ms;
    double paper_ms = 0;
    const int64_t t0 = nowNs();
    auto elapsed = [&] { return static_cast<double>(nowNs() - t0) / 1e9; };
    uint64_t request = 0;
    while ((elapsed() < ctx.seconds ||
            plain_ms.size() + traced_ms.size() < kMinCalls) &&
           elapsed() < 4 * ctx.seconds + 30) {
        const bool traced = ctx.trace && tracedBlock(elapsed());
        reference_ms.push_back(referenceKernelMs());
        const double scale = kReferenceNominalMs / reference_ms.back();
        ScopedSpan round(ctx.spans, "suite.round", request);
        for (size_t i = 0; i < suite.size(); ++i) {
            const Entry &e = suite[i];
            ++request;
            int64_t c0 = nowNs();
            CompileResult r;
            if (traced) {
                ScopedSpan call(ctx.spans, "suite.compile_call", request,
                                round.index());
                int64_t a = ctx.spans.begin("ir.analysis", request,
                                            call.index());
                square::ProgramAnalysis analysis(*e.target.program);
                ctx.spans.end(a);
                ScopedSpan core(ctx.spans, "core.compile", request,
                                call.index());
                square::CompileOptions opts;
                opts.analysis = &analysis;
                r = square::compile(*e.target.program, e.machine,
                                    e.target.request.cfg, opts);
            } else {
                r = square::compile(*e.target.program, e.machine,
                                    e.target.request.cfg);
            }
            double ms = scale * static_cast<double>(nowNs() - c0) / 1e6;
            per_target[i].push_back(ms);
            if (e.paper) {
                (traced ? traced_ms : plain_ms).push_back(ms);
                paper_ms += ms;
            }
            report.attempt();
            std::string why = diffResults(reference[i], r);
            if (!why.empty())
                report.fail(e.target.workload + " on " + e.target.machine +
                            " is not deterministic: " + why);
        }
    }
    const double seconds = elapsed();
    std::vector<double> all_ms = plain_ms;
    all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
    report.set("ops_per_s",
               static_cast<double>(all_ms.size()) / (paper_ms / 1e3));

    if (ctx.trace) {
        setTailMetrics(report, all_ms, {}, {});
        report.set("bench.reference_ms", median(reference_ms));
        report.set("bench.trace_overhead_pct",
                   100.0 * (median(traced_ms) / median(plain_ms) - 1.0));
        probeCoreLayers(ctx);
        Fabric fabric;
        std::string error;
        if (!fabric.start(ctx.daemonDir, ctx.stateDir + "/fabric", 0, error))
            square::fatal("perfbench: ", error);
        FabricSnapshot before;
        FabricSnapshot after;
        if (!snapshot(fabric, before, error))
            square::fatal("perfbench: ", error);
        double requests = probeLadder(ctx, fabric);
        if (!snapshot(fabric, after, error))
            square::fatal("perfbench: ", error);
        setFabricLayerMetrics(report, before, after, requests);
        fabric.stop();
        finishSpans(ctx);
        return;
    }

    std::vector<double> medians;
    std::vector<Target> paper;
    std::vector<CompileResult> paper_results;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (suite[i].paper) {
            medians.push_back(median(per_target[i]));
            paper.push_back(suite[i].target);
            paper_results.push_back(reference[i]);
        }
    }
    report.set("compile_ms_geomean", geomean(medians));
    report.set("compile_peak_rss_mb", peakRssMb(::getpid()));
    setQualityMetrics(report, paper, paper_results);
    std::fprintf(stderr,
                 "compile_suite: %zu targets, %zu rounds in %.2f s, "
                 "reference kernel %.3f ms\n",
                 suite.size(), per_target[0].size(), seconds,
                 median(reference_ms));
}

} // namespace perfbench
