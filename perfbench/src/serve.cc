/**
 * @file
 * serve_warm and serve_mixed: the compile service as deployed, a
 * 2-shard fabric (two square_served processes, one shard each, behind
 * square_router), driven over NDJSON on loopback.
 *
 * The load generator is this one process with at most two client
 * threads and two connections, sized for a 4-core host whose measured
 * parallelism is often well below 4.
 */

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/logging.h"
#include "gen.h"
#include "server/client.h"
#include "stats.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using square::CompileResult;

/**
 * Fabric instances per run: each is one set-up (setup_s is their
 * median) and serves 1/kInstances of the run (ops_per_s is the median
 * over them).
 */
constexpr int kInstances = 5;
/** Seconds of round-robin compiles behind compile_ms_geomean. */
constexpr double kCompileSeconds = 5.0;

// serve_warm: closed loop, two connections at pipeline depth 8.
constexpr int kWarmClients = 2;
constexpr int kDepth = 8;

// serve_mixed: open loop; Zipf keys over NISQ programs x {square, laa}
// x kVariants anchor_box_margin values.  Margins of 8 and up cover the
// whole 5x5 lattice, so every variant compiles identically under its
// own cache key.  With a per-shard LRU bound of kShardCacheEntries and
// the kPrewarm hottest keys compiled during set-up, about 2% of
// requests miss (first sight or after eviction).
constexpr double kMixedRate = 8000;
constexpr int kVariants = 100;
constexpr int kFirstMargin = 8;
constexpr double kZipfS = 1.4;
constexpr size_t kShardCacheEntries = 400;
constexpr size_t kPrewarm = 800;

/** The serve_warm working set: 48 keys, every one cached. */
std::vector<Target>
warmSet(ProgramBuilder &programs)
{
    std::vector<Target> out;
    auto add = [&](const square::BenchmarkInfo &info,
                   const std::string &machine, const std::string &policy) {
        Target t;
        t.workload = info.name;
        t.machine = machine;
        t.policy = policy;
        t.nisqScale = info.nisqScale;
        std::string error;
        if (!resolve(t, programs.registry(info.name), error))
            square::fatal("perfbench: bad target: ", error);
        out.push_back(std::move(t));
    };
    for (const square::BenchmarkInfo &info : square::benchmarkRegistry()) {
        const std::string paper = square::MachineSpec::paperFor(info).str();
        if (info.nisqScale) {
            for (const char *policy : {"square", "lazy", "eager", "laa"})
                add(info, paper, policy);
        } else {
            add(info, paper, "square");
            add(info,
                square::MachineSpec::ftBraid(info.boundaryEdge,
                                             info.boundaryEdge)
                    .str(),
                "square");
        }
    }
    return out;
}

/** The serve_mixed base combos: NISQ programs x {square, laa}. */
std::vector<Target>
mixedBases(ProgramBuilder &programs)
{
    std::vector<Target> out;
    for (const char *policy : {"square", "laa"}) {
        for (Target t : nisqTargets(programs)) {
            t.policy = policy;
            t.anchorMargin = kFirstMargin;
            std::string error;
            if (!resolve(t, t.program, error))
                square::fatal("perfbench: bad target: ", error);
            out.push_back(std::move(t));
        }
    }
    return out;
}

/**
 * Send one request per target (ids 1..n) pipelined on one connection
 * and collect the reply lines by target; false on a transport failure.
 */
bool
requestAll(uint16_t port, const std::vector<const Target *> &targets,
           std::vector<std::string> &replies, std::string &error)
{
    square::LineClient client;
    if (!client.connect("127.0.0.1", port, error))
        return false;
    client.setRecvTimeoutMs(60000);
    std::string buf;
    for (size_t i = 0; i < targets.size(); ++i)
        buf += requestLine(*targets[i], i + 1) + "\n";
    if (!client.sendRaw(buf)) {
        error = "send failed";
        return false;
    }
    replies.assign(targets.size(), "");
    for (size_t n = 0; n < targets.size(); ++n) {
        std::string line;
        uint64_t id = 0;
        if (!client.recvLine(line)) {
            error = "set-up reply missing";
            return false;
        }
        if (!replyId(line, id) || id == 0 || id > targets.size()) {
            error = "set-up reply with a bad id: " + line;
            return false;
        }
        replies[id - 1] = std::move(line);
    }
    return true;
}

/**
 * One set-up: stop the previous instance, start a fabric on the fresh
 * state directory fabric<@p instance> and compile @p warm through it;
 * @p replies gets the set-up replies.  Returns the calibrated seconds
 * it took.
 *
 * The set-up runs on one CPU, the daemons included (they inherit the
 * mask), and is calibrated like the compile timings (report.h).  The
 * host's usable parallelism swings between 1 and 4 CPUs for minutes at
 * a time, and an unpinned serve_mixed set-up took 2.8x as long in the
 * serialized phases.  The daemons get every CPU back for serving.
 */
double
startWarmed(RunContext &ctx, Fabric &fabric, size_t cache_entries,
            const std::vector<const Target *> &warm,
            std::vector<std::string> &replies, int instance)
{
    fabric.stop();
    cpu_set_t all;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(::sched_getcpu(), &one);
    if (::sched_getaffinity(0, sizeof all, &all) != 0 ||
        ::sched_setaffinity(0, sizeof one, &one) != 0)
        square::fatal("perfbench: cannot pin the set-up to one CPU");
    const double scale = kReferenceNominalMs / referenceKernelMs();

    const std::string dir = ctx.stateDir + "/fabric" + std::to_string(instance);
    std::string error;
    const int64_t t0 = nowNs();
    if (!fabric.start(ctx.daemonDir, dir, cache_entries, error))
        square::fatal("perfbench: fabric set-up: ", error);
    const int64_t t1 = nowNs();
    if (!requestAll(fabric.routerPort(), warm, replies, error))
        square::fatal("perfbench: fabric set-up: ", error);
    const int64_t t2 = nowNs();

    ::sched_setaffinity(0, sizeof all, &all);
    std::vector<pid_t> daemons = fabric.shardPids();
    daemons.push_back(fabric.routerPid());
    for (pid_t pid : daemons) {
        if (!setProcessAffinity(pid, all))
            square::fatal("perfbench: cannot unpin daemon ", pid);
    }
    std::fprintf(stderr,
                 "set-up %d: fabric start %.1f ms, working set %.1f ms "
                 "(raw), calibration x%.3f\n",
                 instance, (t1 - t0) / 1e6, (t2 - t1) / 1e6, scale);
    return scale * static_cast<double>(t2 - t0) / 1e9;
}

/**
 * Set-up replies: each must be ok and repeat, byte for byte, the tail
 * of its key's first reply.  Reply i is for key @p keys[i]; a key
 * without a first reply in @p first_reply gets this one.
 */
void
checkSetupReplies(Report &report, const std::vector<std::string> &replies,
                  const std::vector<size_t> &keys,
                  std::vector<std::string> &first_reply)
{
    for (size_t i = 0; i < replies.size(); ++i) {
        const std::string &line = replies[i];
        std::string &first = first_reply[keys[i]];
        report.attempt();
        if (line.find("\"ok\": true") == std::string::npos)
            report.fail("set-up reply not ok: " + line);
        else if (first.empty())
            first = line;
        else if (replyTail(line) != replyTail(first))
            report.fail("set-up reply differs from its key's first reply: " +
                        line);
    }
}

/**
 * The serving oracle: deserialize @p reply and compare it field by
 * field with @p fresh, a fresh in-process compile() of @p t.
 */
void
checkServed(Report &report, const Target &t, const std::string &reply,
            const CompileResult &fresh)
{
    ServedReply served;
    std::string error;
    report.attempt();
    if (!parseServedReply(reply, served, error))
        report.fail(t.workload + ": unparsable reply: " + error);
    else if (std::string why = diffReply(served, fresh, t.key); !why.empty())
        report.fail(t.workload + "/" + t.policy + " on " + t.machine +
                    ": served reply differs from compile(): " + why);
}

/** checkServed against a compile() of @p t made here. */
void
checkServedFresh(Report &report, const Target &t, const std::string &reply)
{
    const square::Machine machine = t.request.machine.build();
    checkServed(report, t, reply,
                square::compile(*t.program, machine, t.request.cfg));
}

/** One stderr line with each fabric instance's rate and median. */
void
logInstances(const char *workload, const std::vector<double> &rates,
             const std::vector<double> &p50s)
{
    std::fprintf(stderr, "%s: per instance req/s, p50 ms:", workload);
    for (size_t i = 0; i < rates.size(); ++i)
        std::fprintf(stderr, " %.0f/%.4f", rates[i], p50s[i]);
    std::fprintf(stderr, "\n");
}

double
maxShardRssMb(const Fabric &fabric)
{
    double peak = 0;
    for (pid_t pid : fabric.shardPids())
        peak = std::max(peak, peakRssMb(pid));
    return peak;
}

struct WarmClient
{
    std::vector<double> plainMs;
    std::vector<double> tracedMs;
    int64_t replies = 0;
    int64_t bad = 0;
    std::string firstError;
    SpanLog spans;
};

void
runWarmClient(uint16_t port, const std::vector<std::string> &fields,
              const std::vector<std::string> &tails, uint64_t seed,
              int64_t start_ns, int64_t end_ns, bool trace, int index,
              WarmClient &out)
{
    out.spans = SpanLog(trace);
    auto bad = [&](const std::string &why) {
        if (out.bad++ == 0)
            out.firstError = why;
    };
    square::LineClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, error)) {
        bad("connect: " + error);
        return;
    }
    client.setRecvTimeoutMs(10000);
    Rng rng(seed);
    uint64_t next_id = (static_cast<uint64_t>(index) + 1) << 32;
    uint64_t ids[kDepth];
    size_t keys[kDepth];
    std::string buf;
    while (nowNs() < end_ns) {
        buf.clear();
        for (int j = 0; j < kDepth; ++j) {
            keys[j] = rng.below(fields.size());
            ids[j] = next_id++;
            buf += "{\"id\": ";
            buf += std::to_string(ids[j]);
            buf += ", ";
            buf += fields[keys[j]];
            buf += "}\n";
        }
        const bool traced =
            trace && tracedBlock(static_cast<double>(nowNs() - start_ns) /
                                 1e9);
        SpanLog &log = out.spans;
        int64_t batch = traced ? log.begin("warm.batch", ids[0])
                               : SpanLog::kNone;
        const int64_t t0 = nowNs();
        if (!client.sendRaw(buf)) {
            bad("send failed");
            return;
        }
        for (int n = 0; n < kDepth; ++n) {
            std::string_view line;
            if (!client.recvLineView(line)) {
                bad("connection closed or timed out");
                return;
            }
            uint64_t id = 0;
            int j = 0;
            if (replyId(line, id)) {
                while (j < kDepth && ids[j] != id)
                    ++j;
            } else {
                j = kDepth;
            }
            if (j == kDepth) {
                bad("reply with an unknown id: " + std::string(line));
                continue;
            }
            if (traced)
                log.add("warm.request", t0, nowNs(), id, batch);
            if (line.find("\"ok\": true") == std::string_view::npos ||
                line.find("\"cache\": \"hit\"") == std::string_view::npos ||
                replyTail(line) != tails[keys[j]])
                bad("not a verified hit: " + std::string(line));
        }
        if (traced)
            log.end(batch);
        const double ms = static_cast<double>(nowNs() - t0) / 1e6;
        (traced ? out.tracedMs : out.plainMs).push_back(ms);
        out.replies += kDepth;
    }
}

/** One closed-loop slice against one fabric instance. */
struct WarmSlice
{
    std::vector<double> plainMs;
    std::vector<double> tracedMs;
    int64_t replies = 0;
    double seconds = 0;
};

WarmSlice
measureWarmSlice(RunContext &ctx, const Fabric &fabric,
                 const std::vector<std::string> &fields,
                 const std::vector<std::string> &tails, double seconds,
                 uint64_t seed)
{
    std::vector<WarmClient> clients(kWarmClients);
    std::vector<std::thread> threads;
    const int64_t start = nowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    for (int i = 0; i < kWarmClients; ++i) {
        threads.emplace_back(runWarmClient, fabric.routerPort(),
                             std::cref(fields), std::cref(tails), seed + i,
                             start, end, ctx.trace, i, std::ref(clients[i]));
    }
    for (std::thread &t : threads)
        t.join();
    WarmSlice slice;
    slice.seconds = static_cast<double>(nowNs() - start) / 1e9;
    for (WarmClient &c : clients) {
        slice.plainMs.insert(slice.plainMs.end(), c.plainMs.begin(),
                             c.plainMs.end());
        slice.tracedMs.insert(slice.tracedMs.end(), c.tracedMs.begin(),
                              c.tracedMs.end());
        slice.replies += c.replies;
        ctx.report.attempt(c.replies);
        for (int64_t i = 0; i < c.bad; ++i)
            ctx.report.fail(c.firstError);
        ctx.spans.append(std::move(c.spans));
    }
    if (slice.replies == 0)
        ctx.report.fail("serve_warm: no replies");
    return slice;
}

} // namespace

void
runServeWarm(RunContext &ctx)
{
    Report &report = ctx.report;
    ProgramBuilder programs;
    const std::vector<Target> set = warmSet(programs);
    std::vector<const Target *> warm;
    std::vector<std::string> fields;
    for (const Target &t : set) {
        warm.push_back(&t);
        fields.push_back(requestFields(t));
    }
    // Timed first, while the heap holds only the programs, so the timing
    // does not depend on what a run's worth of replies left behind.
    std::vector<CompileResult> results;
    std::vector<double> compile_ms;
    if (!ctx.trace)
        compile_ms = timeCompiles(set, kCompileSeconds, results);

    // Each set-up's fabric instance serves one slice of the run; the
    // metrics are medians over the instances.  Every instance's replies
    // must repeat the first instance's, which the oracle checks.
    Fabric fabric;
    std::vector<size_t> keys(set.size());
    std::iota(keys.begin(), keys.end(), 0);
    std::vector<std::string> first_reply(set.size());
    std::vector<std::string> tails;
    std::vector<std::string> replies;
    std::vector<double> setups;
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> plain;
    std::vector<double> traced;
    FabricSnapshot before;
    FabricSnapshot after;
    double served = 0;
    std::string error;
    for (int r = 0; r < kInstances; ++r) {
        setups.push_back(startWarmed(ctx, fabric, 0, warm, replies, r));
        checkSetupReplies(report, replies, keys, first_reply);
        tails.clear();
        for (const std::string &line : first_reply)
            tails.emplace_back(replyTail(line));
        if (!snapshot(fabric, before, error))
            square::fatal("perfbench: ", error);
        WarmSlice slice = measureWarmSlice(
            ctx, fabric, fields, tails, ctx.seconds / kInstances,
            streamSeed(ctx.seed, Stream::WarmKeys) + 16 * r);
        if (!snapshot(fabric, after, error))
            square::fatal("perfbench: ", error);
        rates.push_back(static_cast<double>(slice.replies) / slice.seconds);
        p50s.push_back(percentile(slice.plainMs, 50).value);
        plain.insert(plain.end(), slice.plainMs.begin(), slice.plainMs.end());
        traced.insert(traced.end(), slice.tracedMs.begin(),
                      slice.tracedMs.end());
        served = static_cast<double>(slice.replies);
    }
    report.set("setup_s", median(setups));
    report.set("ops_per_s", median(rates));

    if (ctx.trace) {
        setFabricLayerMetrics(report, before, after, served);
        setTailMetrics(report, plain, {}, {});
        report.set("bench.trace_overhead_pct",
                   100.0 * (median(traced) / median(plain) - 1.0));
        report.set("bench.reference_ms", medianReferenceMs(5));
        probeCoreLayers(ctx);
        probeLadder(ctx, fabric);
        fabric.stop();
        for (size_t i = 0; i < set.size(); ++i)
            checkServedFresh(report, set[i], first_reply[i]);
        finishSpans(ctx);
        return;
    }

    const double rss = maxShardRssMb(fabric);
    fabric.stop();
    for (size_t i = 0; i < set.size(); ++i)
        checkServed(report, set[i], first_reply[i], results[i]);
    report.set("compile_ms_geomean", geomean(compile_ms));
    report.set("compile_peak_rss_mb", rss);
    setQualityMetrics(report, set, results);
    logInstances("serve_warm", rates, p50s);
}

namespace {

/** What the open loop observed. */
struct MixedObservation
{
    std::vector<double> warmMs;
    /** Warm replies due in traced blocks (traced runs only). */
    std::vector<double> warmTracedMs;
    std::vector<double> coldMs;
    std::vector<double> lateMs;
    int64_t replies = 0;
    int64_t bad = 0;
    std::string firstError;
    double seconds = 0;
};

/**
 * One sender thread paces @p keys onto @p schedule; one receiver
 * thread times each reply from its scheduled send.  @p first_reply
 * keeps each key's first reply line; every later one must repeat its
 * tail.
 */
void
runOpenLoop(RunContext &ctx, uint16_t port,
            const std::vector<std::string> &fields,
            const std::vector<size_t> &keys,
            const std::vector<double> &schedule,
            std::vector<std::string> &first_reply, MixedObservation &obs)
{
    square::LineClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, error))
        square::fatal("perfbench: connect: ", error);
    client.setRecvTimeoutMs(10000);

    const size_t n = schedule.size();
    if (n == 0)
        return;
    const int64_t base = nowNs() + 20'000'000;
    auto due = [&](size_t i) {
        return base + static_cast<int64_t>(schedule[i] * 1e9);
    };
    std::vector<int64_t> sent(n, 0);
    SpanLog receiver_spans(ctx.trace);

    std::thread sender([&] {
        // Exact wake-ups: the default 50 us timer slack would show up
        // as generator lateness.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        std::string buf;
        size_t i = 0;
        while (i < n) {
            int64_t now = nowNs();
            if (due(i) > now) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due(i) - now));
                now = nowNs();
            }
            buf.clear();
            size_t first = i;
            while (i < n && due(i) <= now) {
                buf += "{\"id\": ";
                buf += std::to_string(i + 1);
                buf += ", ";
                buf += fields[keys[i]];
                buf += "}\n";
                ++i;
            }
            for (size_t k = first; k < i; ++k)
                sent[k] = now;
            if (!client.sendRaw(buf))
                return;
        }
    });

    int64_t last = base;
    while (obs.replies < static_cast<int64_t>(n)) {
        std::string_view line;
        // A 10 s silence (the receive timeout) ends the run; requests
        // still unanswered then count as failed.
        if (!client.recvLineView(line))
            break;
        const int64_t now = nowNs();
        last = now;
        uint64_t id = 0;
        if (!replyId(line, id) || id == 0 || id > n) {
            if (obs.bad++ == 0)
                obs.firstError = "reply with a bad id: " + std::string(line);
            continue;
        }
        const size_t i = id - 1;
        ++obs.replies;
        const double ms = static_cast<double>(now - due(i)) / 1e6;
        std::string &first = first_reply[keys[i]];
        bool ok = line.find("\"ok\": true") != std::string_view::npos;
        if (ok && first.empty())
            first.assign(line);
        else if (ok)
            ok = replyTail(line) == replyTail(first);
        if (!ok) {
            if (obs.bad++ == 0)
                obs.firstError = "bad reply: " + std::string(line);
            continue;
        }
        const bool cold =
            line.find("\"cache\": \"miss\"") != std::string_view::npos;
        const bool traced =
            ctx.trace &&
            tracedBlock(static_cast<double>(due(i) - base) / 1e9);
        if (cold)
            obs.coldMs.push_back(ms);
        else
            (traced ? obs.warmTracedMs : obs.warmMs).push_back(ms);
        if (traced)
            receiver_spans.add(cold ? "mixed.cold" : "mixed.warm", due(i),
                               now, id);
    }
    client.shutdownWrite();
    sender.join();
    for (size_t i = 0; i < n; ++i) {
        if (sent[i] != 0)
            obs.lateMs.push_back(static_cast<double>(sent[i] - due(i)) / 1e6);
    }
    obs.seconds = static_cast<double>(last - base) / 1e9;
    ctx.spans.append(std::move(receiver_spans));
}

} // namespace

void
runServeMixed(RunContext &ctx)
{
    Report &report = ctx.report;
    ProgramBuilder programs;
    const std::vector<Target> bases = mixedBases(programs);

    // Key k is base k % B at margin kFirstMargin + k / B.
    std::vector<Target> universe;
    for (int v = 0; v < kVariants; ++v) {
        for (const Target &b : bases) {
            Target t = b;
            t.anchorMargin = kFirstMargin + v;
            std::string error;
            if (!resolve(t, t.program, error))
                square::fatal("perfbench: bad target: ", error);
            universe.push_back(std::move(t));
        }
    }
    std::vector<std::string> fields;
    for (const Target &t : universe)
        fields.push_back(requestFields(t));
    // The base programs compile in tens of microseconds, which this host
    // cannot time steadily (20% run-to-run spread even calibrated), so
    // compile_ms_geomean times the serve_warm working set instead, before
    // the fabric runs, as serve_warm does.
    std::vector<double> compile_ms;
    if (!ctx.trace) {
        std::vector<CompileResult> timed;
        compile_ms = timeCompiles(warmSet(programs), kCompileSeconds, timed);
    }

    // The seed assigns popularity ranks to keys and draws the requests
    // and their Poisson send times.
    const std::vector<size_t> by_rank = permutation(
        universe.size(), streamSeed(ctx.seed, Stream::MixedRanks));
    const Zipf zipf(universe.size(), kZipfS);

    std::vector<const Target *> hot;
    const std::vector<size_t> hot_keys(by_rank.begin(),
                                       by_rank.begin() + kPrewarm);
    for (size_t k : hot_keys)
        hot.push_back(&universe[k]);
    std::vector<std::string> first_reply(universe.size());

    // Each set-up's fabric instance serves one slice of the schedule;
    // the metrics are medians over the instances.
    Fabric fabric;
    Rng draws(streamSeed(ctx.seed, Stream::MixedDraws));
    std::vector<double> setups;
    std::vector<double> rates;
    std::vector<double> p50s;
    MixedObservation all;
    FabricSnapshot before;
    FabricSnapshot after;
    double sent = 0;
    std::string error;
    for (int r = 0; r < kInstances; ++r) {
        std::vector<std::string> hot_replies;
        setups.push_back(startWarmed(ctx, fabric, kShardCacheEntries, hot,
                                     hot_replies, r));
        checkSetupReplies(report, hot_replies, hot_keys, first_reply);
        const std::vector<double> schedule = poissonSchedule(
            kMixedRate, ctx.seconds / kInstances,
            streamSeed(ctx.seed, Stream::Schedule) + r);
        std::vector<size_t> keys(schedule.size());
        for (size_t &k : keys)
            k = by_rank[zipf.draw(draws)];

        if (!snapshot(fabric, before, error))
            square::fatal("perfbench: ", error);
        MixedObservation obs;
        runOpenLoop(ctx, fabric.routerPort(), fields, keys, schedule,
                    first_reply, obs);
        if (!snapshot(fabric, after, error))
            square::fatal("perfbench: ", error);

        report.attempt(static_cast<int64_t>(schedule.size()));
        const int64_t missing =
            static_cast<int64_t>(schedule.size()) - obs.replies;
        for (int64_t i = 0; i < missing; ++i)
            report.fail("serve_mixed: request without a reply");
        for (int64_t i = 0; i < obs.bad; ++i)
            report.fail(obs.firstError);
        rates.push_back(static_cast<double>(obs.replies) / obs.seconds);
        p50s.push_back(percentile(obs.warmMs, 50).value);
        for (auto [from, to] :
             {std::pair{&obs.warmMs, &all.warmMs},
              std::pair{&obs.warmTracedMs, &all.warmTracedMs},
              std::pair{&obs.coldMs, &all.coldMs},
              std::pair{&obs.lateMs, &all.lateMs}})
            to->insert(to->end(), from->begin(), from->end());
        sent = static_cast<double>(schedule.size());
    }
    report.set("setup_s", median(setups));
    report.set("ops_per_s", median(rates));

    const size_t requests = all.warmMs.size() + all.warmTracedMs.size() +
                            all.coldMs.size();
    logInstances("serve_mixed", rates, p50s);
    std::fprintf(stderr, "serve_mixed: %zu cold replies of %zu (%.2f%%)\n",
                 all.coldMs.size(), requests,
                 100.0 * all.coldMs.size() / std::max<size_t>(requests, 1));

    // Oracle: every key's first reply against a fresh compile().
    for (size_t k = 0; k < universe.size(); ++k) {
        if (!first_reply[k].empty())
            checkServedFresh(report, universe[k], first_reply[k]);
    }

    if (ctx.trace) {
        setFabricLayerMetrics(report, before, after, sent);
        std::vector<double> warm = all.warmMs;
        warm.insert(warm.end(), all.warmTracedMs.begin(),
                    all.warmTracedMs.end());
        setTailMetrics(report, warm, all.coldMs, all.lateMs);
        report.set("bench.trace_overhead_pct",
                   100.0 * (median(all.warmTracedMs) / median(all.warmMs) -
                            1.0));
        report.set("bench.reference_ms", medianReferenceMs(5));
        probeCoreLayers(ctx);
        probeLadder(ctx, fabric);
        fabric.stop();
        finishSpans(ctx);
        return;
    }

    const double rss = maxShardRssMb(fabric);
    fabric.stop();

    std::vector<CompileResult> results;
    for (const Target &b : bases) {
        const square::Machine machine = b.request.machine.build();
        results.push_back(square::compile(*b.program, machine, b.request.cfg));
    }
    report.set("compile_ms_geomean", geomean(compile_ms));
    report.set("compile_peak_rss_mb", rss);
    setQualityMetrics(report, bases, results);
}

} // namespace perfbench
