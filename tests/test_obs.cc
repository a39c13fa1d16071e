/**
 * @file
 * Unit tests for the telemetry subsystem (src/obs/): histogram bucket
 * geometry and its 1/32 relative-error bound, merge-equals-single-
 * population percentiles, agreement with stats.h's nearest-rank rule,
 * sharded counter summation under concurrency (the binary runs in the
 * CI ThreadSanitizer job), the deterministic head sampler, trace id
 * wire format, the NDJSON span log, and the Prometheus exposition
 * shape.  The protocol-level "metrics"/"text" reply round-trip is
 * covered here too, since square_top depends on it.
 *
 * The flight-recorder half: per-thread ring recording and wrap, the
 * merged snapshot, the postmortem NDJSON round-trip, the crash
 * handler's ability to write a parseable postmortem from inside a
 * signal frame (a death test), and the watchdog's active/idle/busy
 * alarm semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "service/protocol.h"

namespace square {
namespace {

// -------------------------------------------------------------------
// Histogram geometry
// -------------------------------------------------------------------

TEST(Histogram, BucketUpperRoundTripsThroughBucketIndex)
{
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
        const int64_t upper = obs::Histogram::bucketUpper(i);
        EXPECT_EQ(obs::Histogram::bucketIndex(upper), i)
            << "bucket " << i << " upper " << upper;
    }
}

TEST(Histogram, BucketUppersAreStrictlyIncreasing)
{
    int64_t prev = -1;
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
        const int64_t upper = obs::Histogram::bucketUpper(i);
        EXPECT_GT(upper, prev) << "bucket " << i;
        prev = upper;
    }
}

TEST(Histogram, ValuesBelow64AreExact)
{
    for (int64_t v = 0; v < 64; ++v)
        EXPECT_EQ(obs::Histogram::bucketUpper(
                      obs::Histogram::bucketIndex(v)),
                  v);
}

TEST(Histogram, RelativeErrorIsBoundedByOneThirtySecond)
{
    // The reported value (bucket upper bound) never under-reports and
    // overshoots by at most one sub-bucket width = value/32.
    Rng rng(7);
    for (int trial = 0; trial < 20000; ++trial) {
        const int64_t v = static_cast<int64_t>(
            rng.below(uint64_t{1} << (6 + trial % 40)));
        const int64_t reported = obs::Histogram::bucketUpper(
            obs::Histogram::bucketIndex(v));
        EXPECT_GE(reported, v);
        EXPECT_LE(reported - v, v / 32 + 1) << "value " << v;
    }
}

TEST(Histogram, NegativeValuesClampToZero)
{
    obs::Histogram h;
    h.record(-5);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.total, 1u);
    EXPECT_EQ(snap.percentile(50.0), 0);
}

// -------------------------------------------------------------------
// Histogram population semantics
// -------------------------------------------------------------------

TEST(Histogram, PercentilesMatchNearestRankForExactValues)
{
    // Every sample below 64 lands in an exact bucket, so histogram
    // percentiles must agree bit-for-bit with the sorted-sample rule.
    obs::Histogram h;
    std::vector<double> sorted;
    Rng rng(11);
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = static_cast<int64_t>(rng.below(64));
        h.record(v);
        sorted.push_back(static_cast<double>(v));
    }
    std::sort(sorted.begin(), sorted.end());
    const obs::HistogramSnapshot snap = h.snapshot();
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(static_cast<double>(snap.percentile(p)),
                  percentileNearestRank(sorted, p))
            << "p" << p;
}

TEST(Histogram, PercentilesTrackNearestRankWithinRelativeError)
{
    obs::Histogram h;
    std::vector<double> sorted;
    Rng rng(13);
    for (int i = 0; i < 5000; ++i) {
        const int64_t v =
            static_cast<int64_t>(rng.below(1000000)) + 64;
        h.record(v);
        sorted.push_back(static_cast<double>(v));
    }
    std::sort(sorted.begin(), sorted.end());
    const obs::HistogramSnapshot snap = h.snapshot();
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        const double exact = percentileNearestRank(sorted, p);
        const double approx =
            static_cast<double>(snap.percentile(p));
        EXPECT_GE(approx, exact) << "p" << p;
        EXPECT_LE(approx, exact * (1.0 + 1.0 / 32) + 1.0) << "p" << p;
    }
}

TEST(Histogram, MergedShardsEqualSinglePopulation)
{
    // The aggregation invariant the fabric depends on: recording a
    // population across N histograms and merging the snapshots gives
    // the same totals and percentiles as one histogram fed everything.
    obs::Histogram shards[3];
    obs::Histogram single;
    Rng rng(17);
    for (int i = 0; i < 9000; ++i) {
        const int64_t v = static_cast<int64_t>(rng.below(100000));
        shards[static_cast<size_t>(i % 3)].record(v);
        single.record(v);
    }
    obs::HistogramSnapshot merged = shards[0].snapshot();
    merged.merge(shards[1].snapshot());
    merged.merge(shards[2].snapshot());
    const obs::HistogramSnapshot expect = single.snapshot();
    EXPECT_EQ(merged.total, expect.total);
    EXPECT_EQ(merged.sum, expect.sum);
    EXPECT_EQ(merged.max, expect.max);
    ASSERT_EQ(merged.counts.size(), expect.counts.size());
    EXPECT_EQ(merged.counts, expect.counts);
    for (double p : {50.0, 99.0, 99.9})
        EXPECT_EQ(merged.percentile(p), expect.percentile(p));
}

TEST(Histogram, MeanAndMaxFollowTheSamples)
{
    obs::Histogram h;
    for (int64_t v : {10, 20, 30})
        h.record(v);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.mean(), 20.0);
    EXPECT_EQ(snap.max, 30);
    EXPECT_EQ(snap.percentile(100.0), 30);
}

// -------------------------------------------------------------------
// Counters, gauges, registry (concurrent paths run under TSan in CI)
// -------------------------------------------------------------------

TEST(Counter, ConcurrentAddsSumExactly)
{
    obs::Counter c;
    constexpr int kThreads = 8;
    constexpr int kAdds = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add(1);
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(), static_cast<int64_t>(kThreads) * kAdds);
}

TEST(Histogram, ConcurrentRecordsKeepEverySample)
{
    obs::Histogram h;
    constexpr int kThreads = 4;
    constexpr int kRecords = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kRecords; ++i)
                h.record(t * 1000 + i % 100);
        });
    // A racing reader: snapshots must be internally usable (never
    // torn into an invalid shape) while writers are active.
    std::thread reader([&h] {
        for (int i = 0; i < 200; ++i)
            (void)h.snapshot().percentile(99.0);
    });
    for (auto &thread : threads)
        thread.join();
    reader.join();
    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads) * kRecords);
}

TEST(Gauge, SetAddAndHighWaterMark)
{
    obs::Gauge g;
    g.set(5);
    g.add(3);
    EXPECT_EQ(g.value(), 8);
    g.add(-10);
    EXPECT_EQ(g.value(), -2);
    g.noteMax(7);
    EXPECT_EQ(g.value(), 7);
    g.noteMax(4); // below the mark: no effect
    EXPECT_EQ(g.value(), 7);
}

TEST(Registry, CreateOrGetReturnsStableReferences)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("requests");
    a.add(2);
    // Force deque growth, then re-resolve: same object.
    for (int i = 0; i < 64; ++i)
        reg.counter("c" + std::to_string(i));
    obs::Counter &b = reg.counter("requests");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 2);
    const auto values = reg.counterValues();
    ASSERT_FALSE(values.empty());
    // Insertion order: the first-created counter renders first.
    EXPECT_EQ(values.front().first, "requests");
    EXPECT_EQ(values.front().second, 2);
}

// -------------------------------------------------------------------
// Prometheus exposition
// -------------------------------------------------------------------

TEST(Prometheus, RendersCountersGaugesAndSummaries)
{
    obs::Registry reg;
    reg.counter("requests").add(3);
    reg.gauge("active").set(2);
    for (int64_t v = 0; v < 100; ++v)
        reg.histogram("latency_us").record(v);
    std::string out;
    obs::renderPrometheus(out, "square_test", reg);
    EXPECT_NE(out.find("# TYPE square_test_requests_total counter\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("square_test_requests_total 3\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("# TYPE square_test_active gauge\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("square_test_active 2\n"), std::string::npos);
    EXPECT_NE(
        out.find("square_test_latency_us{quantile=\"0.5\"} 49\n"),
        std::string::npos)
        << out;
    EXPECT_NE(out.find("square_test_latency_us_count 100\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("square_test_latency_us_sum 4950\n"),
              std::string::npos)
        << out;
}

TEST(Prometheus, TextReplyRoundTripsThroughTheProtocol)
{
    // The "metrics" command ships multi-line exposition inside the
    // one-line protocol; parsing the reply must give the text back.
    JsonRequest request;
    std::string error;
    ASSERT_TRUE(
        parseJsonLine("{\"id\": 9, \"cmd\": \"metrics\"}", request,
                      error))
        << error;
    const std::string text = "# TYPE a counter\na 1\nb{q=\"0.5\"} 2\n";
    const std::string reply = formatTextReply(request, "metrics", text);
    JsonRequest parsed;
    ASSERT_TRUE(parseJsonLine(reply, parsed, error)) << error;
    EXPECT_EQ(parsed.get("id"), "9");
    EXPECT_EQ(parsed.get("cmd"), "metrics");
    EXPECT_EQ(parsed.get("text"), text);
}

// -------------------------------------------------------------------
// Tracing
// -------------------------------------------------------------------

TEST(TraceTest, IdWireFormatRoundTrips)
{
    for (uint64_t id : {uint64_t{1}, uint64_t{0xdeadbeefull},
                        ~uint64_t{0}}) {
        const std::string hex = obs::Trace::formatId(id);
        EXPECT_EQ(hex.size(), 16u);
        uint64_t back = 0;
        ASSERT_TRUE(obs::Trace::parseId(hex, back)) << hex;
        EXPECT_EQ(back, id);
    }
    // Either case, 1-16 digits; no sign, prefix or padding.
    uint64_t back = 0;
    ASSERT_TRUE(obs::Trace::parseId("DeadBeef", back));
    EXPECT_EQ(back, 0xdeadbeefull);
    ASSERT_TRUE(obs::Trace::parseId("7", back));
    EXPECT_EQ(back, 7u);
    uint64_t ignored = 0;
    for (const char *bad : {"", "xyz", "0123456789abcdef0", "-1", "+1",
                            "0x1f", " 1f", "1f "}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(obs::Trace::parseId(bad, ignored));
    }
}

TEST(TraceTest, GeneratedIdsAreUniqueAndNonZero)
{
    std::vector<uint64_t> ids;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t id = obs::genTraceId();
        EXPECT_NE(id, 0u);
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(SamplerTest, DeterministicOneInN)
{
    obs::Sampler never(0);
    obs::Sampler always(1);
    obs::Sampler quarter(4);
    int sampled = 0;
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(never.sample());
        EXPECT_TRUE(always.sample());
        if (quarter.sample())
            ++sampled;
    }
    EXPECT_EQ(sampled, 25);
}

TEST(TraceLogTest, EmitsOneParseableLinePerSpan)
{
    char path[] = "/tmp/square_obs_trace_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    std::string error;
    ASSERT_TRUE(obs::TraceLog::instance().configure(path, error))
        << error;
    EXPECT_TRUE(obs::TraceLog::instance().enabled());

    obs::Trace trace(0xabc123, true);
    trace.addSpan("resolve", 1000, 10);
    trace.addSpan("analysis", 1010, 20);
    obs::TraceLog::instance().emit(trace, "shard");
    // Back to disabled before any assertion can bail out, so other
    // tests in this process never inherit the temp-file sink.
    ASSERT_TRUE(obs::TraceLog::instance().configure("", error));
    EXPECT_FALSE(obs::TraceLog::instance().enabled());

    std::ifstream in(path);
    std::string line;
    std::vector<std::string> spans;
    while (std::getline(in, line)) {
        JsonRequest json;
        ASSERT_TRUE(parseJsonLine(line, json, error))
            << error << ": " << line;
        EXPECT_EQ(json.get("trace"), "0000000000abc123");
        EXPECT_EQ(json.get("comp"), "shard");
        spans.push_back(json.get("span"));
    }
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0], "resolve");
    EXPECT_EQ(spans[1], "analysis");
    ::close(fd);
    std::remove(path);
}

TEST(TraceLogTest, DisabledLogSwallowsEmits)
{
    std::string error;
    ASSERT_TRUE(obs::TraceLog::instance().configure("", error));
    obs::Trace trace(1, true);
    trace.addSpan("x", 0, 0);
    obs::TraceLog::instance().emit(trace, "shard"); // must not crash
    obs::TraceLog::instance().emitSpan(1, "shard", "y", 0, 0);
}

TEST(TraceTest, ConcurrentSpanAppendsAllSurvive)
{
    // A request's spans arrive from the event thread and the worker
    // pool concurrently; under TSan this pins the locking.
    obs::Trace trace(42, true);
    constexpr int kThreads = 4;
    constexpr int kSpans = 500;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&trace] {
            for (int i = 0; i < kSpans; ++i)
                trace.addSpan("s", i, 1);
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(trace.spans().size(),
              static_cast<size_t>(kThreads) * kSpans);
}

// -------------------------------------------------------------------
// Flight recorder
// -------------------------------------------------------------------

TEST(FlightRecorderTest, NameTablesCoverEveryCode)
{
    for (uint16_t c = 0;
         c < static_cast<uint16_t>(obs::Comp::kCount); ++c) {
        const char *name =
            obs::compName(static_cast<obs::Comp>(c));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "");
        EXPECT_STRNE(name, "unknown") << "comp " << c;
    }
    for (uint16_t e = 0; e < static_cast<uint16_t>(obs::Ev::kCount);
         ++e) {
        const char *name = obs::evName(static_cast<obs::Ev>(e));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "");
        EXPECT_STRNE(name, "unknown") << "ev " << e;
    }
    // Out-of-range codes (a corrupt ring) still render safely.
    EXPECT_STREQ(obs::compName(obs::Comp::kCount), "unknown");
    EXPECT_STREQ(obs::evName(obs::Ev::kCount), "unknown");
}

TEST(FlightRecorderTest, RecordedEventsAppearInSnapshotInOrder)
{
    obs::FlightRecorder &fr = obs::FlightRecorder::instance();
    const uint64_t marker = 0xfee1500000000001ull;
    obs::recordEvent(obs::Comp::Service, obs::Ev::Admit, marker, 1);
    obs::recordEvent(obs::Comp::Transport, obs::Ev::Flush, marker, 2,
                     0xabc123);
    std::vector<obs::Event> mine;
    for (const obs::Event &ev : fr.snapshot())
        if (ev.a0 == marker)
            mine.push_back(ev);
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_EQ(mine[0].a1, 1u);
    EXPECT_EQ(mine[1].a1, 2u);
    EXPECT_EQ(mine[0].comp,
              static_cast<uint16_t>(obs::Comp::Service));
    EXPECT_EQ(mine[0].code, static_cast<uint16_t>(obs::Ev::Admit));
    EXPECT_EQ(mine[0].trace, 0u);
    EXPECT_EQ(mine[1].trace, 0xabc123u);
    EXPECT_LE(mine[0].tsUs, mine[1].tsUs);
    EXPECT_EQ(mine[0].tid, mine[1].tid); // same recording thread
}

TEST(FlightRecorderTest, RingWrapKeepsTheNewestEvents)
{
    obs::FlightRecorder &fr = obs::FlightRecorder::instance();
    const uint64_t marker = 0xfee1500000000002ull;
    constexpr uint64_t kExtra = 100;
    // A dedicated thread owns one ring for the whole burst.
    std::thread writer([marker] {
        for (uint64_t i = 0;
             i < obs::FlightRecorder::kRingEvents + kExtra; ++i)
            obs::recordEvent(obs::Comp::Worker, obs::Ev::Dequeue,
                             marker, i);
    });
    writer.join();
    std::vector<uint64_t> seqs;
    for (const obs::Event &ev : fr.snapshot())
        if (ev.a0 == marker)
            seqs.push_back(ev.a1);
    // Exactly one ring's worth survives, and it is the newest suffix.
    ASSERT_EQ(seqs.size(), obs::FlightRecorder::kRingEvents);
    std::sort(seqs.begin(), seqs.end());
    EXPECT_EQ(seqs.front(), kExtra);
    EXPECT_EQ(seqs.back(),
              obs::FlightRecorder::kRingEvents + kExtra - 1);
    EXPECT_GE(fr.dropped(), kExtra);
}

TEST(FlightRecorderTest, ConcurrentWritersAndSnapshotReaders)
{
    // Writers never synchronize with each other; snapshot() races
    // them by design.  Under TSan (CI) this pins the ring's
    // release/acquire publication protocol.
    obs::FlightRecorder &fr = obs::FlightRecorder::instance();
    const uint64_t marker = 0xfee1500000000003ull;
    constexpr int kThreads = 4;
    constexpr uint64_t kEach = 1500; // < kRingEvents: nothing wraps
    // Writers park until everyone is done: a thread that exited early
    // would release its ring slot for the next writer to reuse, and
    // the shared ring would wrap (this box may run them serially).
    std::atomic<int> done{0};
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([marker, t, &done] {
            for (uint64_t i = 0; i < kEach; ++i)
                obs::recordEvent(obs::Comp::Transport,
                                 obs::Ev::Backpressure, marker,
                                 static_cast<uint64_t>(t) * kEach + i);
            done.fetch_add(1);
            while (done.load() < kThreads)
                std::this_thread::yield();
        });
    std::thread reader([&fr] {
        for (int i = 0; i < 50; ++i)
            (void)fr.snapshot();
    });
    for (auto &w : writers)
        w.join();
    reader.join();
    uint64_t count = 0;
    for (const obs::Event &ev : fr.snapshot())
        if (ev.a0 == marker)
            ++count;
    // Concurrent threads hold distinct rings, each burst fits: every
    // event survives to the quiescent snapshot.
    EXPECT_EQ(count, static_cast<uint64_t>(kThreads) * kEach);
}

// -------------------------------------------------------------------
// Postmortem NDJSON
// -------------------------------------------------------------------

TEST(PostmortemTest, DumpRoundTripsThroughNdjson)
{
    obs::Postmortem &pm = obs::Postmortem::instance();
    EXPECT_EQ(pm.dump("unit"), -1); // unconfigured: no file, no dump
    EXPECT_FALSE(pm.enabled());

    char path[] = "/tmp/square_obs_pm_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    std::string error;
    ASSERT_TRUE(pm.configure(path, error)) << error;
    EXPECT_TRUE(pm.enabled());
    EXPECT_EQ(pm.path(), path);

    obs::Registry reg;
    reg.counter("dumps").add(3);
    reg.gauge("depth").set(7);
    reg.histogram("lat_us").record(42);
    pm.registerRegistry("unit", &reg);
    obs::recordEvent(obs::Comp::Router, obs::Ev::Forward, 2, 9,
                     0x1234abcd);
    const int64_t events = pm.dump("command");
    EXPECT_GT(events, 0);
    pm.unregisterRegistry(&reg);
    ASSERT_TRUE(pm.configure("", error));
    EXPECT_FALSE(pm.enabled());

    std::ifstream in(path);
    std::string line;
    bool begin = false, end = false, saw_ev = false;
    bool saw_counter = false, saw_gauge = false, saw_hist = false;
    while (std::getline(in, line)) {
        JsonRequest json;
        ASSERT_TRUE(parseJsonLine(line, json, error))
            << error << ": " << line;
        const std::string kind = json.get("pm");
        EXPECT_EQ(json.get("pid"), std::to_string(::getpid()));
        if (kind == "begin") {
            begin = true;
            EXPECT_EQ(json.get("reason"), "command");
            EXPECT_FALSE(json.has("signal"));
        } else if (kind == "ev") {
            if (json.get("trace") == "000000001234abcd") {
                saw_ev = true;
                EXPECT_EQ(json.get("comp"), "router");
                EXPECT_EQ(json.get("ev"), "forward");
                EXPECT_EQ(json.get("a0"), "2");
                EXPECT_EQ(json.get("a1"), "9");
            }
        } else if (kind == "metric") {
            if (json.get("reg") != "unit")
                continue;
            if (json.get("name") == "dumps") {
                saw_counter = true;
                EXPECT_EQ(json.get("kind"), "counter");
                EXPECT_EQ(json.get("value"), "3");
            } else if (json.get("name") == "depth") {
                saw_gauge = true;
                EXPECT_EQ(json.get("kind"), "gauge");
                EXPECT_EQ(json.get("value"), "7");
            } else if (json.get("name") == "lat_us_count") {
                saw_hist = true;
                EXPECT_EQ(json.get("value"), "1");
            }
        } else if (kind == "end") {
            end = true;
            EXPECT_EQ(json.get("reason"), "command");
            EXPECT_EQ(json.get("events"), std::to_string(events));
        }
    }
    EXPECT_TRUE(begin);
    EXPECT_TRUE(saw_ev);
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_gauge);
    EXPECT_TRUE(saw_hist);
    EXPECT_TRUE(end);
    std::remove(path);
}

TEST(PostmortemDeathTest, CrashHandlerWritesParseablePostmortem)
{
    // The whole point of the crash handler: a SIGABRT inside the
    // process must still leave a complete, parseable postmortem
    // block.  "threadsafe" re-execs the binary for the child, so the
    // statement re-configures the sink from the environment.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The re-exec'ed child runs this preamble again before the
    // statement: only the original parent may create the temp file
    // and publish it, or the child would dump to a file of its own.
    char path[256] = {};
    if (const char *inherited = ::getenv("SQUARE_PM_CRASH_PATH")) {
        std::snprintf(path, sizeof path, "%s", inherited);
    } else {
        std::snprintf(path, sizeof path,
                      "/tmp/square_obs_crash_XXXXXX");
        const int fd = ::mkstemp(path);
        ASSERT_GE(fd, 0);
        ::close(fd);
        ASSERT_EQ(::setenv("SQUARE_PM_CRASH_PATH", path, 1), 0);
    }

    EXPECT_EXIT(
        {
            const char *pm_path = ::getenv("SQUARE_PM_CRASH_PATH");
            std::string err;
            obs::Postmortem &pm = obs::Postmortem::instance();
            if (pm_path == nullptr || !pm.configure(pm_path, err))
                ::_exit(42);
            pm.installCrashHandler();
            obs::recordEvent(obs::Comp::Service, obs::Ev::Request, 7,
                             0, 0xdeadbeef);
            std::abort();
        },
        testing::KilledBySignal(SIGABRT), "");

    std::ifstream in(path);
    std::string line, error;
    bool begin = false, end = false, saw_ev = false;
    int64_t declared = -1;
    while (std::getline(in, line)) {
        JsonRequest json;
        ASSERT_TRUE(parseJsonLine(line, json, error))
            << error << ": " << line;
        const std::string kind = json.get("pm");
        if (kind == "begin") {
            begin = true;
            EXPECT_EQ(json.get("reason"), "crash");
            EXPECT_EQ(json.get("signal_name"), "SIGABRT");
        } else if (kind == "ev") {
            if (json.get("trace") == "00000000deadbeef") {
                saw_ev = true;
                EXPECT_EQ(json.get("comp"), "service");
                EXPECT_EQ(json.get("ev"), "request");
            }
        } else if (kind == "end") {
            end = true;
            declared = std::strtoll(json.get("events").c_str(),
                                    nullptr, 10);
        }
    }
    EXPECT_TRUE(begin);
    EXPECT_TRUE(saw_ev) << "crash dump lost the traced event";
    EXPECT_TRUE(end) << "crash dump was truncated";
    EXPECT_GE(declared, 1);
    ::unsetenv("SQUARE_PM_CRASH_PATH");
    std::remove(path);
}

// -------------------------------------------------------------------
// Watchdog
// -------------------------------------------------------------------

TEST(WatchdogTest, OnlyActiveSilenceAlarmsAndOnlyOnce)
{
    obs::Watchdog &wd = obs::Watchdog::instance();
    obs::WatchdogConfig cfg;
    cfg.thresholdMs = 40;
    cfg.intervalMs = 5;
    wd.configure(cfg);
    ASSERT_TRUE(wd.enabled());
    const int64_t before = wd.stalls();
    {
        obs::WatchdogRegistration reg("test_loop");

        // Idle (parked in epoll_wait / cv.wait): silence is expected.
        reg.idle();
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        EXPECT_EQ(wd.stalls(), before);

        // Busy (a known-long compile): exempt from the threshold.
        reg.busy();
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        EXPECT_EQ(wd.stalls(), before);

        // Active then silent: the stall the watchdog exists for.
        // One alarm only — the alarmed latch holds until re-armed.
        reg.beat();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        EXPECT_EQ(wd.stalls(), before + 1);

        // The next beat re-arms the slot; a second stall re-alarms.
        reg.beat();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        EXPECT_EQ(wd.stalls(), before + 2);
    }
    wd.disable();
    EXPECT_FALSE(wd.enabled());
}

TEST(WatchdogTest, HeartbeatsSuppressTheAlarm)
{
    obs::Watchdog &wd = obs::Watchdog::instance();
    obs::WatchdogConfig cfg;
    cfg.thresholdMs = 60;
    cfg.intervalMs = 5;
    wd.configure(cfg);
    const int64_t before = wd.stalls();
    {
        obs::WatchdogRegistration reg("beating_loop");
        // 300ms of work, five times past the threshold, but beating
        // every 15ms: a healthy loop never alarms.
        for (int i = 0; i < 20; ++i) {
            reg.beat();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(15));
        }
    }
    EXPECT_EQ(wd.stalls(), before);
    wd.disable();
}

} // namespace
} // namespace square
