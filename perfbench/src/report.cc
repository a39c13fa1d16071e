#include "report.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"setup_s", "s"},
        {"ok_frac", "ratio"},
        {"compile_ms_geomean", "ms"},
        {"compile_peak_rss_mb", "MB"},
        {"aqv_geomean", "cycle-qubits"},
        {"depth_geomean", "cycles"},
        {"swaps_geomean", "count"},
        {"nisq_success_geomean", "probability"},
    };
    return m;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"ir.analysis_ms", "ms"},
        {"core.compile_ms.lattice", "ms"},
        {"core.compile_ms.braid", "ms"},
        {"core.reclaims", "count"},
        {"core.skips", "count"},
        {"core.reclaim_ratio", "ratio"},
        {"core.uncompute_gates", "count"},
        {"core.qubits_used", "count"},
        {"core.peak_live", "count"},
        {"route.swaps", "count"},
        {"route.swaps_per_gate", "ratio"},
        {"route.braid_length_avg", "hops"},
        {"service.hit_us", "us"},
        {"service.miss_ms", "ms"},
        {"service.hit_rate", "ratio"},
        {"service.compiles", "count"},
        {"service.evictions", "count"},
        {"service.shed", "count"},
        {"service.queue_wait_ms", "ms"},
        {"service.store_appended", "count"},
        {"service.store_append_bytes", "bytes"},
        {"server.handle_line_us", "us"},
        {"server.shard_rtt_us", "us"},
        {"server.syscalls_per_req", "syscall/req"},
        {"server.cpu_us_per_req", "us"},
        {"server.replies_per_write", "reply/write"},
        {"server.router_hop_us", "us"},
        {"server.forward_rtt_us", "us"},
        {"server.shard_down_replies", "count"},
        {"server.reconnects", "count"},
        {"ops_per_s", "1/s"},
        {"latency.p50_ms", "ms"},
        {"latency.p99_ms", "ms"},
        {"latency.p99_samples", "count"},
        {"mixed_cold_p50_ms", "ms"},
        {"mixed_cold_p99_ms", "ms"},
        {"mixed_cold_samples", "count"},
        {"ladder.1_compile_us", "us"},
        {"ladder.2_submit_hit_us", "us"},
        {"ladder.3_handle_line_us", "us"},
        {"ladder.4_shard_direct_us", "us"},
        {"ladder.5_via_router_us", "us"},
        {"bench.generator_late_ms.p99", "ms"},
        {"bench.generator_late_ms.max", "ms"},
        {"bench.parallelism", "x"},
        {"bench.reference_ms", "ms"},
        {"bench.trace_overhead_pct", "%"},
        {"bench.spans", "count"},
    };
    return m;
}

void
Report::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    if (failed_ <= 20)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

double
Report::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
Report::print(const std::vector<MetricSpec> &catalogue) const
{
    for (const MetricSpec &m : catalogue) {
        if (!has(m.name)) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                         m.name);
            return false;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    for (size_t i = 0; i < catalogue.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", catalogue[i].name,
                    get(catalogue[i].name), catalogue[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return true;
}

double
measureParallelism(int threads)
{
    // A dependent integer chain the optimizer cannot fold.
    auto spin = [](uint64_t iters) {
        volatile uint64_t sink = 0;
        uint64_t x = 0x9E3779B97F4A7C15ull;
        for (uint64_t i = 0; i < iters; ++i)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        sink = x;
        (void)sink;
    };
    constexpr uint64_t kIters = 40'000'000;
    auto timed = [&](int n) {
        int64_t t0 = nowNs();
        std::vector<std::thread> pool;
        for (int i = 0; i < n; ++i)
            pool.emplace_back(spin, kIters);
        for (std::thread &t : pool)
            t.join();
        return static_cast<double>(nowNs() - t0);
    };
    double t1 = timed(1);
    double tn = timed(threads);
    return tn > 0 ? threads * t1 / tn : 1.0;
}

double
referenceKernelMs()
{
    // Forty sorts of 4096 pseudo-random integers (16 KiB, L1/L2
    // resident): data-dependent branches and short-range memory
    // traffic, like the compiler's own inner loops.
    std::vector<uint32_t> v(4096);
    uint64_t x = 0x243F6A8885A308D3ull;
    const int64_t t0 = nowNs();
    for (int round = 0; round < 40; ++round) {
        for (uint32_t &e : v) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            e = static_cast<uint32_t>(x >> 32);
        }
        std::sort(v.begin(), v.end());
    }
    volatile uint32_t sink = v[v.size() / 2];
    (void)sink;
    return static_cast<double>(nowNs() - t0) / 1e6;
}

double
medianReferenceMs(int reps)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i)
        ms.push_back(referenceKernelMs());
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

} // namespace perfbench
