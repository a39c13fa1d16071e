/**
 * @file
 * Shard-fabric correctness: the consistent-hash ring (balance, bounded
 * key movement on membership change), the inter-tier framing
 * (CacheKey hex round-trip, forwarded-request rewriting), and the
 * router daemon end to end — forwarding over real sockets, stats
 * fan-out, structured shard_down failover with no lost or duplicated
 * replies, ring rejoin after a shard comes back, and deterministic
 * failover driven by the fault injector (connect_fail_rate,
 * reset_after_bytes).  This binary runs under the CI ThreadSanitizer
 * job: the upstream pool's reader/health/transport-thread interplay is
 * enforced there.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fstream>

#include <unistd.h>

#include "common/hash.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/faults.h"
#include "server/hash_ring.h"
#include "server/router_daemon.h"
#include "server/server.h"
#include "server/upstream.h"
#include "service/protocol.h"

namespace square {
namespace {

// -------------------------------------------------------------------
// Hash ring
// -------------------------------------------------------------------

/** A deterministic stream of pseudo-keys (hashes, as the ring sees). */
uint64_t
keyHash(int i)
{
    return hashCombine(0x9e3779b97f4a7c15ull,
                       static_cast<uint64_t>(i));
}

TEST(HashRing, EmptyRingOwnsNothing)
{
    HashRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.ownerIndex(42), -1);
    EXPECT_TRUE(ring.owner(42).empty());
}

TEST(HashRing, AddRemoveContains)
{
    HashRing ring;
    ring.add("a");
    ring.add("b");
    ring.add("a"); // idempotent
    EXPECT_EQ(ring.nodes(), 2);
    EXPECT_TRUE(ring.contains("a"));
    ring.remove("a");
    EXPECT_FALSE(ring.contains("a"));
    EXPECT_EQ(ring.nodes(), 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(ring.owner(keyHash(i)), "b");
}

TEST(HashRing, OwnershipIsDeterministicAcrossInstances)
{
    HashRing a, b;
    for (const char *node : {"s0", "s1", "s2"}) {
        a.add(node);
        b.add(node);
    }
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.owner(keyHash(i)), b.owner(keyHash(i)));
}

TEST(HashRing, DistributionIsBalanced)
{
    HashRing ring;
    constexpr int kNodes = 8;
    constexpr int kKeys = 100000;
    for (int n = 0; n < kNodes; ++n)
        ring.add("shard-" + std::to_string(n));
    std::map<std::string, int> counts;
    for (int i = 0; i < kKeys; ++i)
        ++counts[ring.owner(keyHash(i))];
    ASSERT_EQ(counts.size(), static_cast<size_t>(kNodes));
    const double ideal = static_cast<double>(kKeys) / kNodes;
    for (const auto &[node, count] : counts) {
        // 128 vnodes keep per-node load within ~35% of ideal; the
        // bound here is looser so the test pins "balanced", not the
        // exact hash layout.
        EXPECT_GT(count, ideal * 0.5) << node;
        EXPECT_LT(count, ideal * 1.5) << node;
    }
}

TEST(HashRing, AddMovesOnlyTheNewNodesShare)
{
    constexpr int kNodes = 4;
    constexpr int kKeys = 50000;
    HashRing before, after;
    for (int n = 0; n < kNodes; ++n) {
        before.add("shard-" + std::to_string(n));
        after.add("shard-" + std::to_string(n));
    }
    after.add("shard-new");
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
        const std::string &was = before.owner(keyHash(i));
        const std::string &now = after.owner(keyHash(i));
        if (was != now) {
            // Every moved key must have moved TO the new node — a key
            // migrating between surviving nodes would break cache
            // affinity for no reason.
            EXPECT_EQ(now, "shard-new");
            ++moved;
        }
    }
    // Ideal movement is 1/(N+1) of the keys; consistent hashing with
    // 128 vnodes stays well under 1.5x that.
    const double ideal = static_cast<double>(kKeys) / (kNodes + 1);
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, ideal * 1.5);
}

TEST(HashRing, RemoveMovesOnlyTheDeadNodesShare)
{
    constexpr int kNodes = 5;
    constexpr int kKeys = 50000;
    HashRing before, after;
    for (int n = 0; n < kNodes; ++n) {
        before.add("shard-" + std::to_string(n));
        after.add("shard-" + std::to_string(n));
    }
    after.remove("shard-2");
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
        const std::string &was = before.owner(keyHash(i));
        const std::string &now = after.owner(keyHash(i));
        if (was == "shard-2") {
            EXPECT_NE(now, "shard-2");
            ++moved;
        } else {
            // Keys not owned by the removed node must not move at all.
            EXPECT_EQ(was, now);
        }
    }
    const double ideal = static_cast<double>(kKeys) / kNodes;
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, ideal * 1.5);
}

// -------------------------------------------------------------------
// Inter-tier framing
// -------------------------------------------------------------------

TEST(Framing, CacheKeyHexRoundTrips)
{
    CacheKey key{0x0123456789abcdefull, 0xfedcba9876543210ull, 7};
    const std::string hex = formatCacheKeyHex(key);
    EXPECT_EQ(hex,
              "0123456789abcdef-fedcba9876543210-0000000000000007");
    CacheKey back;
    ASSERT_TRUE(parseCacheKeyHex(hex, back));
    EXPECT_EQ(back, key);
}

TEST(Framing, MalformedCacheKeyHexRejects)
{
    CacheKey out;
    EXPECT_FALSE(parseCacheKeyHex("", out));
    EXPECT_FALSE(parseCacheKeyHex("0123", out));
    EXPECT_FALSE(parseCacheKeyHex(
        "0123456789abcdef_fedcba9876543210_0000000000000007", out));
    EXPECT_FALSE(parseCacheKeyHex(
        "0123456789ABCDEF-fedcba9876543210-0000000000000007", out));
    EXPECT_FALSE(parseCacheKeyHex(
        "0123456789abcdef-fedcba9876543210-000000000000000g", out));
}

TEST(Framing, ForwardedRequestRewritesIdAndAppendsKey)
{
    JsonRequest json;
    std::string error;
    ASSERT_TRUE(parseJsonLine("{\"id\": 9, \"workload\": \"ADDER4\", "
                              "\"comm_weight\": 1.5, "
                              "\"priority\": \"batch\"}",
                              json, error))
        << error;
    CacheKey key{1, 2, 3};
    std::string framed;
    formatForwardedRequestTo(framed, json, 77, key);
    EXPECT_EQ(framed,
              "{\"id\": 77, \"workload\": \"ADDER4\", "
              "\"comm_weight\": 1.5, \"priority\": \"batch\", "
              "\"key\": \"0000000000000001-0000000000000002-"
              "0000000000000003\"}");
    // The forwarded line must itself parse and build.
    JsonRequest reparsed;
    ASSERT_TRUE(parseJsonLine(framed, reparsed, error)) << error;
    EXPECT_EQ(reparsed.get("id"), "77");
    CompileRequest req;
    EXPECT_TRUE(buildRequest(reparsed, req, error)) << error;
}

// -------------------------------------------------------------------
// Router daemon end to end
// -------------------------------------------------------------------

/** One shard daemon's in-process stand-in. */
struct ShardProc
{
    std::unique_ptr<CompileServer> server;
    uint16_t port = 0;

    void
    start(uint16_t fixed_port = 0)
    {
        ServerConfig cfg;
        cfg.port = fixed_port;
        std::string error;
        server = std::make_unique<CompileServer>(cfg);
        ASSERT_TRUE(server->start(error)) << error;
        port = server->port();
    }

    void
    stop()
    {
        if (server != nullptr)
            server->stop();
    }
};

class FabricSuite : public ::testing::Test
{
  protected:
    void
    startFabric(int shard_count, double ping_interval_ms = 50)
    {
        shards_.resize(static_cast<size_t>(shard_count));
        RouterConfig cfg;
        for (auto &shard : shards_) {
            shard.start();
            cfg.shards.push_back("127.0.0.1:" +
                                 std::to_string(shard.port));
        }
        cfg.upstream.pingIntervalMs = ping_interval_ms;
        cfg.upstream.failureThreshold = 2;
        cfg.upstream.retryAfterMs = 25;
        router_ = std::make_unique<RouterServer>(cfg);
        std::string error;
        ASSERT_TRUE(router_->start(error)) << error;
    }

    void
    TearDown() override
    {
        FaultInjector::instance().disable();
        if (router_ != nullptr)
            router_->stop();
        for (auto &shard : shards_)
            shard.stop();
    }

    void
    connectClient(LineClient &client)
    {
        std::string error;
        ASSERT_TRUE(
            client.connect("127.0.0.1", router_->port(), error))
            << error;
    }

    std::vector<ShardProc> shards_;
    std::unique_ptr<RouterServer> router_;
};

TEST_F(FabricSuite, ForwardsAndServesWarmHitsThroughTheFabric)
{
    startFabric(2);
    LineClient client;
    connectClient(client);
    std::string reply;
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 1, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"id\": 1"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"cache\": \"miss\""), std::string::npos)
        << reply;
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 2, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"id\": 2"), std::string::npos) << reply;
    // Second identical request is a warm hit on the owning shard's
    // cache — key affinity survived the process split.
    EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos)
        << reply;
}

TEST_F(FabricSuite, AnswersPingAndAggregatesStats)
{
    startFabric(3);
    LineClient client;
    connectClient(client);
    std::string reply;
    ASSERT_TRUE(client.sendLine("{\"id\": 5, \"cmd\": \"ping\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_EQ(reply, "{\"id\": 5, \"ok\": true, \"cmd\": \"ping\"}");

    ASSERT_TRUE(client.sendLine(
        "{\"id\": 1, \"workload\": \"RD53\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    ASSERT_TRUE(client.sendLine("{\"cmd\": \"stats\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"requests\": 1"), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"fabric_shards\": 3"), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"shards_up\": 3"), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"forwarded\": 1"), std::string::npos)
        << reply;
}

TEST_F(FabricSuite, UnknownWorkloadIsAStructuredRouterError)
{
    startFabric(2);
    LineClient client;
    connectClient(client);
    std::string reply;
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 3, \"workload\": \"NOPE\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"id\": 3"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"ok\": false"), std::string::npos) << reply;
}

/**
 * The headline failover property: kill a shard under pipelined load
 * and every request still gets exactly one reply — the shard's answer
 * or a structured shard_down — with no hangs, no losses, and no
 * duplicates.
 */
TEST_F(FabricSuite, KilledShardYieldsOnlyStructuredRepliesNoLostNoDup)
{
    startFabric(2);
    // Workloads spread across both shards (distinct cache keys).
    const std::vector<std::string> kWorkloads = {
        "RD53", "6SYM", "2OF5", "ADDER4", "Jasmine-s", "Elsa-s",
        "Belle-s"};
    LineClient client;
    connectClient(client);
    std::string reply;
    // Warm every key so post-kill requests are cheap hits.
    for (size_t i = 0; i < kWorkloads.size(); ++i) {
        ASSERT_TRUE(client.sendLine(
            "{\"id\": " + std::to_string(i) + ", \"workload\": \"" +
            kWorkloads[i] + "\"}"));
        ASSERT_TRUE(client.recvLine(reply));
    }

    // Pipeline a burst, killing shard 0 mid-stream.
    constexpr int kBurst = 200;
    for (int i = 0; i < kBurst; ++i) {
        ASSERT_TRUE(client.sendLine(
            "{\"id\": " + std::to_string(100 + i) +
            ", \"workload\": \"" +
            kWorkloads[static_cast<size_t>(i) % kWorkloads.size()] +
            "\"}"));
        if (i == kBurst / 4)
            shards_[0].stop();
    }

    std::set<int> answered;
    for (int i = 0; i < kBurst; ++i) {
        ASSERT_TRUE(client.recvLine(reply)) << "reply " << i;
        // Every reply is a success or a structured failover; raw
        // disconnects and unstructured errors both fail here.
        const bool ok =
            reply.find("\"ok\": true") != std::string::npos;
        const bool shard_down =
            reply.find("\"status\": \"shard_down\"") !=
            std::string::npos;
        EXPECT_TRUE(ok || shard_down) << reply;
        if (shard_down)
            EXPECT_NE(reply.find("\"retry_after_ms\": 25"),
                      std::string::npos)
                << reply;
        constexpr std::string_view kIdField = "\"id\": ";
        const size_t pos = reply.find(kIdField);
        ASSERT_NE(pos, std::string::npos) << reply;
        const int id =
            std::atoi(reply.c_str() + pos + kIdField.size());
        // Exactly-once: no id may be answered twice.
        EXPECT_TRUE(answered.insert(id).second)
            << "duplicate reply for id " << id;
    }
    EXPECT_EQ(answered.size(), static_cast<size_t>(kBurst));

    // After the health loop ejects the dead shard, every key routes
    // to the survivor: steady state has no shard_down replies.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    for (size_t i = 0; i < kWorkloads.size(); ++i) {
        ASSERT_TRUE(client.sendLine(
            "{\"id\": " + std::to_string(900 + i) +
            ", \"workload\": \"" + kWorkloads[i] + "\"}"));
        ASSERT_TRUE(client.recvLine(reply));
        EXPECT_NE(reply.find("\"ok\": true"), std::string::npos)
            << reply;
    }
}

TEST_F(FabricSuite, RestartedShardRejoinsTheRing)
{
    startFabric(2);
    const uint16_t shard0_port = shards_[0].port;
    shards_[0].stop();
    // Let the health loop eject it (data path or ping, whichever
    // notices first), then verify the fabric still serves.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    LineClient client;
    connectClient(client);
    std::string reply;
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 1, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;

    // Restart on the same address: the health loop redials and the
    // shard rejoins, reclaiming its arc of the key space.
    shards_[0].start(shard0_port);
    ASSERT_EQ(shards_[0].port, shard0_port);
    bool rejoined = false;
    for (int tries = 0; tries < 100 && !rejoined; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        rejoined = router_->upstreamStats().shardsUp == 2;
    }
    EXPECT_TRUE(rejoined);
    EXPECT_GE(router_->upstreamStats().reconnects, 1);

    // The rejoined fabric serves across the whole key space again.
    for (const char *workload :
         {"RD53", "6SYM", "2OF5", "ADDER4", "Jasmine-s"}) {
        ASSERT_TRUE(client.sendLine(
            std::string("{\"id\": 7, \"workload\": \"") + workload +
            "\"}"));
        ASSERT_TRUE(client.recvLine(reply));
        EXPECT_NE(reply.find("\"ok\": true"), std::string::npos)
            << reply;
    }
}

// -------------------------------------------------------------------
// Deterministic failover via fault injection
// -------------------------------------------------------------------

TEST_F(FabricSuite, InjectedConnectFailuresKeepShardsDownUntilCleared)
{
    // Every connect fails: the pool starts with both shards down and
    // requests get the whole-fabric shard_down reply.
    FaultConfig faults;
    faults.seed = 7;
    faults.connectFailRate = 1.0;
    FaultInjector::instance().configure(faults);
    startFabric(2, /*ping_interval_ms=*/25);
    EXPECT_EQ(router_->upstreamStats().shardsUp, 0);
    LineClient client;
    connectClient(client);
    std::string reply;
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 1, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"status\": \"shard_down\""),
              std::string::npos)
        << reply;
    EXPECT_GE(FaultInjector::instance().stats().connectFailures, 2);

    // Clear the fault: the health loop's next redial round brings
    // both shards up with no process restarts.
    FaultInjector::instance().disable();
    bool up = false;
    for (int tries = 0; tries < 100 && !up; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        up = router_->upstreamStats().shardsUp == 2;
    }
    EXPECT_TRUE(up);
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 2, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;
}

TEST_F(FabricSuite, InjectedResetTripsFailoverThenReconnects)
{
    startFabric(2, /*ping_interval_ms=*/25);
    LineClient client;
    connectClient(client);
    std::string reply;
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 1, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;

    // A one-byte budget: the first send on each (re)dialed connection
    // passes the budget check, every later one is an injected mid-line
    // reset.  Established connections have bytes on the wire already,
    // so sends start failing immediately; the health loop's redials
    // produce brief fresh-connection windows, which is why this asserts
    // "failover observed within a bounded burst" rather than "the very
    // next reply fails".
    FaultConfig faults;
    faults.seed = 7;
    faults.resetAfterBytes = 1;
    FaultInjector::instance().configure(faults);
    bool saw_shard_down = false;
    for (int i = 0; i < 50 && !saw_shard_down; ++i) {
        ASSERT_TRUE(client.sendLine(
            "{\"id\": 2, \"workload\": \"ADDER4\"}"));
        ASSERT_TRUE(client.recvLine(reply));
        saw_shard_down = reply.find("\"status\": \"shard_down\"") !=
                         std::string::npos;
    }
    EXPECT_TRUE(saw_shard_down);
    EXPECT_GE(FaultInjector::instance().stats().connectionResets, 1);

    // Clear the budget: the redial restores the connection (the shard
    // process never died) and serving resumes.
    FaultInjector::instance().disable();
    bool healed = false;
    for (int tries = 0; tries < 100 && !healed; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        healed = router_->upstreamStats().shardsUp == 2;
    }
    EXPECT_TRUE(healed);
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 3, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos)
        << reply;
}


// -------------------------------------------------------------------
// Observability across the fabric
// -------------------------------------------------------------------

TEST_F(FabricSuite, MetricsCommandIsRouterLocal)
{
    startFabric(2);
    LineClient client;
    connectClient(client);
    std::string reply, error;
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 1, \"workload\": \"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    ASSERT_TRUE(client.sendLine("{\"cmd\": \"metrics\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    JsonRequest parsed;
    ASSERT_TRUE(parseJsonLine(reply, parsed, error)) << error;
    const std::string text = parsed.get("text");
    EXPECT_NE(text.find("square_router_fabric_shards 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("square_router_shards_up 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("square_upstream_forwarded_total 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("square_upstream_forward_rtt_us_count 1"),
              std::string::npos)
        << text;
    // Router-local by design: no per-shard service series here.
    EXPECT_EQ(text.find("square_service_"), std::string::npos) << text;
}

TEST_F(FabricSuite, TraceIdPropagatesFromClientThroughRouterToShard)
{
    char path[] = "/tmp/square_fabric_trace_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    std::string error;
    ASSERT_TRUE(obs::TraceLog::instance().configure(path, error))
        << error;

    startFabric(2);
    LineClient client;
    connectClient(client);
    std::string reply;
    // The client-originated id: exactly what square_client
    // --trace-sample splices into the request line.
    ASSERT_TRUE(client.sendLine(
        "{\"id\": 1, \"workload\": \"ADDER4\", "
        "\"trace_id\": \"00c0ffee00c0ffee\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    ASSERT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;
    // Router spans (resolve + forward) and all seven shard spans: 9
    // lines.  Both tiers live in this process and share the log; the
    // shard's emit races the reply, so poll.
    for (int tries = 0; tries < 200; ++tries) {
        std::ifstream in(path);
        std::string line;
        size_t lines = 0;
        while (std::getline(in, line))
            ++lines;
        if (lines >= 9)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(obs::TraceLog::instance().configure("", error));

    std::ifstream in(path);
    std::string line;
    std::set<std::string> router_spans, shard_spans;
    while (std::getline(in, line)) {
        JsonRequest json;
        ASSERT_TRUE(parseJsonLine(line, json, error))
            << error << ": " << line;
        // One trace id across every process boundary.
        EXPECT_EQ(json.get("trace"), "00c0ffee00c0ffee") << line;
        if (json.get("comp") == "router")
            router_spans.insert(json.get("span"));
        else if (json.get("comp") == "shard")
            shard_spans.insert(json.get("span"));
    }
    EXPECT_TRUE(router_spans.count("resolve"));
    EXPECT_TRUE(router_spans.count("forward"));
    for (const char *span :
         {"admission", "queue", "resolve", "analysis",
          "allocate_route_schedule", "serialize", "write"})
        EXPECT_TRUE(shard_spans.count(span)) << span;
    ::close(fd);
    std::remove(path);
}

} // namespace
} // namespace square
