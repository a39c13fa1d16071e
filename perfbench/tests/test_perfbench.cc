/**
 * @file
 * Unit tests of the benchmark's own helpers: percentiles, geomean,
 * span self time, seeded generation, counter parsing, and the output
 * oracle catching corrupted compile results and served replies.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fabric.h"
#include "gen.h"
#include "service/protocol.h"
#include "service/service.h"
#include "spans.h"
#include "stats.h"
#include "targets.h"

namespace perfbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i); // descending: percentile() must sort
    return v;
}

TEST(Percentile, NearestRank)
{
    Percentile p50 = percentile(oneTo(100), 50);
    EXPECT_EQ(p50.value, 50);
    EXPECT_EQ(p50.samples, 100u);
    EXPECT_EQ(p50.beyond, 50u);
    EXPECT_TRUE(p50.supported);
    EXPECT_EQ(percentile(oneTo(100), 90).value, 90);
    EXPECT_EQ(percentile(oneTo(10), 25).value, 3); // rank ceil(2.5) = 3
    EXPECT_EQ(percentile(oneTo(1), 99).value, 1);
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    Percentile p99 = percentile(oneTo(1000), 99);
    EXPECT_EQ(p99.value, 990);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_TRUE(p99.supported);

    Percentile thin = percentile(oneTo(999), 99);
    EXPECT_EQ(thin.beyond, 9u);
    EXPECT_FALSE(thin.supported);
    EXPECT_EQ(thin.samples, 999u);

    EXPECT_FALSE(percentile(oneTo(100), 99).supported);
    Percentile none = percentile({}, 50);
    EXPECT_EQ(none.samples, 0u);
    EXPECT_FALSE(none.supported);
}

TEST(Stats, MedianAndGeomean)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({}), 0);
    EXPECT_DOUBLE_EQ(geomean({1, 100}), 10);
    EXPECT_DOUBLE_EQ(geomean({2, 8}), 4);
    EXPECT_DOUBLE_EQ(geomean({5}), 5);
    EXPECT_EQ(geomean({}), 0);
    EXPECT_EQ(geomean({4, 0}), 0);
    EXPECT_EQ(geomean({4, -1}), 0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> spans = {
        {"parent", 0, 100, -1, 1},
        {"child", 10, 30, 0, 1},  // overlaps the next child
        {"child", 20, 50, 0, 1},
        {"child", 90, 120, 0, 1}, // clipped to the parent's end
        {"leaf", 15, 20, 1, 1},
    };
    std::vector<int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - (40 + 10));
    EXPECT_EQ(self[1], 20 - 5);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 5);
}

TEST(Spans, DisabledLogRecordsNothingAndAppendRebases)
{
    SpanLog off(false);
    EXPECT_EQ(off.begin("x", 1), SpanLog::kNone);
    off.end(SpanLog::kNone);
    EXPECT_TRUE(off.spans().empty());

    SpanLog a(true);
    a.add("a", 0, 10, 1);
    SpanLog b(true);
    int64_t root = b.add("b", 0, 10, 2);
    b.add("c", 2, 4, 2, root);
    a.append(std::move(b));
    ASSERT_EQ(a.spans().size(), 3u);
    EXPECT_EQ(a.spans()[2].parent, 1);
    EXPECT_EQ(selfTimesNs(a.spans())[1], 8);
}

TEST(Generation, ZipfIsSeededAndSkewed)
{
    Zipf zipf(1000, 1.4);
    auto draws = [&](uint64_t seed) {
        Rng rng(seed);
        std::vector<size_t> out;
        for (int i = 0; i < 5000; ++i)
            out.push_back(zipf.draw(rng));
        return out;
    };
    EXPECT_EQ(draws(7), draws(7));
    EXPECT_NE(draws(7), draws(8));
    std::vector<size_t> d = draws(7);
    size_t top = 0;
    for (size_t r : d) {
        ASSERT_LT(r, 1000u);
        top += r == 0;
    }
    // P(rank 0) = 1 / H(1000, 1.4), about 0.33.
    EXPECT_NEAR(static_cast<double>(top) / d.size(), 0.33, 0.03);
}

TEST(Generation, ScheduleIsSeededPoisson)
{
    std::vector<double> a = poissonSchedule(1000, 2, 42);
    EXPECT_EQ(a, poissonSchedule(1000, 2, 42));
    EXPECT_NE(a, poissonSchedule(1000, 2, 43));
    EXPECT_NEAR(static_cast<double>(a.size()), 2000, 150);
    for (size_t i = 1; i < a.size(); ++i)
        ASSERT_GT(a[i], a[i - 1]);
    EXPECT_LT(a.back(), 2.0);
}

TEST(Generation, StreamsPermutationsAndShapesAreSeeded)
{
    EXPECT_EQ(streamSeed(1, Stream::Schedule),
              streamSeed(1, Stream::Schedule));
    EXPECT_NE(streamSeed(1, Stream::Schedule),
              streamSeed(1, Stream::MixedDraws));
    EXPECT_NE(streamSeed(1, Stream::Schedule),
              streamSeed(2, Stream::Schedule));

    std::vector<size_t> p = permutation(100, 5);
    EXPECT_EQ(p, permutation(100, 5));
    EXPECT_EQ(std::set<size_t>(p.begin(), p.end()).size(), 100u);

    auto a = synthShapes(9, 4);
    auto b = synthShapes(9, 4);
    ASSERT_EQ(a.size(), 4u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].levels, b[i].levels);
        EXPECT_EQ(a[i].gates, b[i].gates);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
}

TEST(Counters, MetricsTextSumsLabelsAndKeepsQuantiles)
{
    Counters c = parseMetricsText(
        "# TYPE square_service_hits_total counter\n"
        "square_service_hits_total{shard=\"0\"} 3\n"
        "square_service_hits_total{shard=\"1\"} 4\n"
        "square_upstream_forward_rtt_us{quantile=\"0.5\"} 20\n"
        "square_upstream_forward_rtt_us_count 9\n");
    EXPECT_EQ(c["square_service_hits_total"], 7);
    EXPECT_EQ(c["square_upstream_forward_rtt_us:q0.5"], 20);
    EXPECT_EQ(c["square_upstream_forward_rtt_us_count"], 9);

    Counters s = parseNumbers("{\"ok\": true, \"hits\": 5, \"hit_rate\": "
                              "0.5000, \"label\": \"x\"}");
    EXPECT_EQ(s["ok"], 1);
    EXPECT_EQ(s["hits"], 5);
    EXPECT_EQ(s["hit_rate"], 0.5);
    EXPECT_EQ(s.count("label"), 0u);
}

Target
adder4(ProgramBuilder &programs)
{
    for (Target &t : nisqTargets(programs)) {
        if (t.workload == "ADDER4")
            return t;
    }
    ADD_FAILURE() << "ADDER4 missing from the NISQ set";
    return {};
}

TEST(Oracle, FunctionalCheckPassesOnTheCompiler)
{
    ProgramBuilder programs;
    Target t = adder4(programs);
    EXPECT_EQ(checkFunctional(t, 1), "");
    EXPECT_EQ(checkFunctional(t, 2), "");
}

TEST(Oracle, RejectsAPerturbedCompileResult)
{
    ProgramBuilder programs;
    Target t = adder4(programs);
    const square::Machine m = t.request.machine.build();
    square::CompileResult want =
        square::compile(*t.program, m, t.request.cfg);
    square::CompileResult got =
        square::compile(*t.program, m, t.request.cfg);
    EXPECT_EQ(diffResults(want, got), "");

    square::CompileResult bad = got;
    bad.aqv += 1;
    EXPECT_NE(diffResults(want, bad).find("aqv"), std::string::npos);
    bad = got;
    bad.reclaimCount -= 1;
    EXPECT_NE(diffResults(want, bad).find("reclaims"), std::string::npos);
    bad = got;
    bad.commFactor *= 1.5;
    EXPECT_NE(diffResults(want, bad), "");
}

TEST(Oracle, RejectsACorruptedServedReply)
{
    ProgramBuilder programs;
    Target t = adder4(programs);
    square::CompileService service(1);
    square::ServiceReply served = service.submit(t.request);
    ASSERT_NE(served.result, nullptr);
    square::JsonRequest json;
    std::string error;
    ASSERT_TRUE(square::parseJsonLine(requestLine(t, 7), json, error));
    const std::string line = square::formatReply(json, served);

    const square::Machine m = t.request.machine.build();
    square::CompileResult fresh =
        square::compile(*t.program, m, t.request.cfg);
    ServedReply reply;
    ASSERT_TRUE(parseServedReply(line, reply, error)) << error;
    EXPECT_EQ(diffReply(reply, fresh, t.key), "");
    uint64_t id = 0;
    ASSERT_TRUE(replyId(line, id));
    EXPECT_EQ(id, 7u);
    EXPECT_EQ(replyTail(line).substr(0, 7), "\"gates\"");

    // One field off by one.
    const std::string aqv = "\"aqv\": " + std::to_string(fresh.aqv);
    std::string corrupt = line;
    corrupt.replace(corrupt.find(aqv), aqv.size(),
                    "\"aqv\": " + std::to_string(fresh.aqv + 1));
    ASSERT_TRUE(parseServedReply(corrupt, reply, error));
    EXPECT_NE(diffReply(reply, fresh, t.key).find("aqv"), std::string::npos);

    // A reply for another key.
    square::CacheKey other = t.key;
    other.config ^= 1;
    ASSERT_TRUE(parseServedReply(line, reply, error));
    EXPECT_NE(diffReply(reply, fresh, other).find("key"), std::string::npos);

    // An error reply, and bytes that are not a reply at all.
    ASSERT_TRUE(parseServedReply(
        "{\"id\": 7, \"ok\": false, \"status\": \"overloaded\"}", reply,
        error));
    EXPECT_NE(diffReply(reply, fresh, t.key).find("overloaded"),
              std::string::npos);
    EXPECT_FALSE(parseServedReply(line.substr(0, line.size() / 2), reply,
                                  error));
    std::string renamed = line;
    renamed.replace(renamed.find("\"swaps\""), 7, "\"swapz\"");
    EXPECT_FALSE(parseServedReply(renamed, reply, error));
}

} // namespace
} // namespace perfbench
