/**
 * @file
 * Persistent artifact store correctness: the on-disk record format
 * must round-trip bit-identically (a replayed artifact and its
 * preserialized reply tail golden-check against a fresh compile), the
 * replay must be crash-safe (torn tails and bit-flipped checksums are
 * detected, skipped, and truncated — never replayed), replayed
 * entries must join the service LRU as ordinary resident entries
 * (warm hits, recency order, eviction under CacheLimits), and a
 * CompileServer restarted over its own log — or pre-warmed from a
 * donor's — must serve its working set with zero compiles.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "service/artifact_store.h"
#include "service/cache_key.h"
#include "service/protocol.h"
#include "service/service.h"
#include "workloads/registry.h"

namespace square {
namespace {

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

/** A per-test scratch path (removed on destruction). */
struct ScratchFile
{
    std::string path;

    explicit ScratchFile(const std::string &name)
        : path(testing::TempDir() + "square_store_" + name)
    {
        std::remove(path.c_str());
    }

    ~ScratchFile() { std::remove(path.c_str()); }

    uint64_t size() const
    {
        struct stat st = {};
        if (::stat(path.c_str(), &st) != 0)
            return 0;
        return static_cast<uint64_t>(st.st_size);
    }

    void writeBytes(const std::string &bytes) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
};

/** Replay @p path into a vector (file order). */
std::vector<StoreRecord>
replayAll(const std::string &path, uint64_t &good_bytes,
          uint64_t &corrupt)
{
    std::vector<StoreRecord> records;
    uint64_t replayed = 0;
    std::string error;
    EXPECT_TRUE(replayStoreFile(
        path,
        [&records](StoreRecord &&rec) {
            records.push_back(std::move(rec));
        },
        good_bytes, replayed, corrupt, error))
        << error;
    EXPECT_EQ(replayed, records.size());
    return records;
}

/** One compiled record straight off the service's publish artifacts. */
StoreRecord
publishedRecord(CompileService &service, const std::string &workload,
                const SquareConfig &cfg)
{
    ServiceReply r = service.submit(namedRequest(workload, cfg));
    EXPECT_TRUE(r.error.empty()) << r.error;
    StoreRecord rec;
    rec.key = r.key;
    rec.result = *r.result;
    rec.tail = *r.replyTail;
    return rec;
}

// -------------------------------------------------------------------
// Payload format
// -------------------------------------------------------------------

TEST(StorePayload, EncodeDecodeRoundTrip)
{
    CompileService service(1);
    StoreRecord rec =
        publishedRecord(service, "ADDER4", SquareConfig::square());

    const std::string payload =
        encodeStorePayload(rec.key, rec.result, rec.tail);
    ASSERT_FALSE(payload.empty());

    StoreRecord out;
    ASSERT_TRUE(decodeStorePayload(
        reinterpret_cast<const uint8_t *>(payload.data()),
        payload.size(), out));
    EXPECT_TRUE(out.key == rec.key);
    EXPECT_EQ(out.tail, rec.tail);

    // Bit-identical: a re-encode of the decoded record reproduces the
    // payload byte for byte, which covers every serialized field
    // (including the double-valued ones, which travel by bit pattern).
    EXPECT_EQ(encodeStorePayload(out.key, out.result, out.tail),
              payload);
}

TEST(StorePayload, DecodeRejectsMalformedBytes)
{
    CompileService service(1);
    StoreRecord rec =
        publishedRecord(service, "ADDER4", SquareConfig::square());
    const std::string payload =
        encodeStorePayload(rec.key, rec.result, rec.tail);
    const uint8_t *data =
        reinterpret_cast<const uint8_t *>(payload.data());

    StoreRecord out;
    // Every truncation point must fail cleanly, never crash or read
    // out of bounds (ASan-covered via the CI sanitizer job).
    for (size_t n = 0; n < payload.size();
         n += 1 + payload.size() / 64)
        EXPECT_FALSE(decodeStorePayload(data, n, out)) << n;
    // Trailing garbage is not a valid record either.
    std::string padded = payload + "x";
    EXPECT_FALSE(decodeStorePayload(
        reinterpret_cast<const uint8_t *>(padded.data()),
        padded.size(), out));
}

// -------------------------------------------------------------------
// On-disk replay: crash safety
// -------------------------------------------------------------------

TEST(StoreFile, AbsentAndEmptyFilesReplayClean)
{
    ScratchFile scratch("absent.store");
    uint64_t good_bytes = 99;
    uint64_t corrupt = 99;
    EXPECT_TRUE(replayAll(scratch.path, good_bytes, corrupt).empty());
    EXPECT_EQ(good_bytes, 0u);
    EXPECT_EQ(corrupt, 0u);

    scratch.writeBytes(""); // zero-length file
    EXPECT_TRUE(replayAll(scratch.path, good_bytes, corrupt).empty());
    EXPECT_EQ(good_bytes, 0u);
    EXPECT_EQ(corrupt, 0u);
}

TEST(StoreFile, TornTailIsSkippedAndTruncatedOnOpen)
{
    CompileService service(1);
    StoreRecord a =
        publishedRecord(service, "ADDER4", SquareConfig::square());
    const std::string frame_a = frameStoreRecord(
        encodeStorePayload(a.key, a.result, "tail-a"));
    StoreRecord b =
        publishedRecord(service, "ADDER4", SquareConfig::eager());
    const std::string frame_b = frameStoreRecord(
        encodeStorePayload(b.key, b.result, b.tail));

    // A crash mid-append leaves a partial final frame.
    ScratchFile scratch("torn.store");
    scratch.writeBytes(frame_a + frame_b +
                       frame_b.substr(0, frame_b.size() / 2));

    uint64_t good_bytes = 0;
    uint64_t corrupt = 0;
    std::vector<StoreRecord> records =
        replayAll(scratch.path, good_bytes, corrupt);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(good_bytes, frame_a.size() + frame_b.size());
    EXPECT_EQ(records[0].tail, "tail-a");
    EXPECT_EQ(records[1].tail, b.tail);
    // replayStoreFile never modifies the file.
    EXPECT_GT(scratch.size(), good_bytes);

    // ArtifactStore::open truncates the torn tail in place so the
    // next append extends a clean log, and counts the corruption.
    ArtifactStore store;
    ArtifactStore::Options opts;
    opts.path = scratch.path;
    uint64_t replayed = 0;
    std::string error;
    ASSERT_TRUE(store.open(
        opts, [&replayed](StoreRecord &&) { ++replayed; }, error))
        << error;
    EXPECT_EQ(replayed, 2u);
    EXPECT_EQ(scratch.size(), good_bytes);
    std::string metrics;
    obs::renderPrometheus(metrics, "square_store",
                          store.metricsRegistry());
    EXPECT_NE(metrics.find("square_store_corrupt_records_total 1"),
              std::string::npos);
    EXPECT_NE(metrics.find("square_store_replayed_total 2"),
              std::string::npos);
    store.close();
    EXPECT_EQ(scratch.size(), good_bytes); // close appends nothing
}

TEST(StoreFile, BitFlippedChecksumStopsReplayAtTheFlip)
{
    CompileService service(1);
    StoreRecord rec =
        publishedRecord(service, "ADDER4", SquareConfig::square());
    const std::string frame = frameStoreRecord(
        encodeStorePayload(rec.key, rec.result, rec.tail));

    std::string bytes = frame + frame + frame;
    // Flip one payload byte inside the SECOND record.
    bytes[frame.size() + frame.size() / 2] ^= 0x40;
    ScratchFile scratch("bitflip.store");
    scratch.writeBytes(bytes);

    uint64_t good_bytes = 0;
    uint64_t corrupt = 0;
    std::vector<StoreRecord> records =
        replayAll(scratch.path, good_bytes, corrupt);
    // Replay stops at the first bad checksum: everything after it is
    // one undecodable region (frame boundaries cannot be trusted).
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(good_bytes, frame.size());
    EXPECT_EQ(records[0].tail, rec.tail);
}

// -------------------------------------------------------------------
// Append + replay round trip (the golden check)
// -------------------------------------------------------------------

TEST(ArtifactStore, AppendedRecordsReplayBitIdenticalToFreshCompile)
{
    ScratchFile scratch("golden.store");
    const SquareConfig configs[] = {SquareConfig::square(),
                                    SquareConfig::eager(),
                                    SquareConfig::lazy()};
    {
        ArtifactStore store;
        ArtifactStore::Options opts;
        opts.path = scratch.path;
        std::string error;
        ASSERT_TRUE(store.open(
            opts, [](StoreRecord &&) {}, error))
            << error;

        CompileService service(2);
        for (const SquareConfig &cfg : configs) {
            ServiceReply r =
                service.submit(namedRequest("ADDER4", cfg));
            ASSERT_TRUE(r.error.empty()) << r.error;
            store.append(r.key, r.result, r.replyTail);
        }
        store.close(); // drains the appender queue before closing
    }

    uint64_t good_bytes = 0;
    uint64_t corrupt = 0;
    std::vector<StoreRecord> records =
        replayAll(scratch.path, good_bytes, corrupt);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(corrupt, 0u);
    EXPECT_EQ(good_bytes, scratch.size());

    // Golden: every replayed record must be bit-identical to a fresh
    // compile of the same request in a brand-new service — the reply
    // tail byte for byte (those bytes go to the wire verbatim), and
    // the result through a full field-level re-encode.
    CompileService fresh(2);
    for (size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE(configs[i].name);
        ServiceReply r =
            fresh.submit(namedRequest("ADDER4", configs[i]));
        ASSERT_TRUE(r.error.empty()) << r.error;
        EXPECT_TRUE(records[i].key == r.key);
        EXPECT_EQ(records[i].tail, *r.replyTail);
        EXPECT_EQ(records[i].tail,
                  formatReplyTail(*r.result, r.key));
        EXPECT_EQ(encodeStorePayload(records[i].key,
                                     records[i].result,
                                     records[i].tail),
                  encodeStorePayload(r.key, *r.result, *r.replyTail));
    }
}

TEST(ArtifactStore, CloseWithoutFlushDrainsTheQueue)
{
    // SIGTERM-path contract: a clean shutdown persists every append
    // acknowledged before close(), even with nothing explicitly
    // flushed.
    ScratchFile scratch("drain.store");
    CompileService service(1);
    ServiceReply r =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));
    ASSERT_TRUE(r.error.empty());

    ArtifactStore store;
    ArtifactStore::Options opts;
    opts.path = scratch.path;
    std::string error;
    ASSERT_TRUE(store.open(
        opts, [](StoreRecord &&) {}, error))
        << error;
    for (int i = 0; i < 64; ++i)
        store.append(r.key, r.result, r.replyTail);
    store.close();
    // Appends after close are silent no-ops (late publishes during
    // teardown), not crashes.
    store.append(r.key, r.result, r.replyTail);

    uint64_t good_bytes = 0;
    uint64_t corrupt = 0;
    EXPECT_EQ(replayAll(scratch.path, good_bytes, corrupt).size(),
              64u);
    EXPECT_EQ(corrupt, 0u);
}

// -------------------------------------------------------------------
// The publish sink (how the server feeds the store)
// -------------------------------------------------------------------

TEST(Service, PublishSinkFiresOncePerPublishedKey)
{
    CompileService service(2);
    std::vector<std::pair<CacheKey, std::string>> published;
    std::mutex mu;
    service.setPublishSink(
        [&](const CacheKey &key,
            const std::shared_ptr<const CompileResult> &result,
            const std::shared_ptr<const std::string> &tail) {
            ASSERT_NE(result, nullptr);
            ASSERT_NE(tail, nullptr);
            std::lock_guard<std::mutex> lock(mu);
            published.emplace_back(key, *tail);
        });

    CompileRequest req =
        namedRequest("ADDER4", SquareConfig::square());
    ServiceReply miss = service.submit(req);
    ServiceReply hit = service.submit(req);
    ASSERT_TRUE(miss.error.empty());
    ASSERT_TRUE(hit.hit);

    // One publish, one sink call; the hit re-fires nothing.
    ASSERT_EQ(published.size(), 1u);
    EXPECT_TRUE(published[0].first == miss.key);
    EXPECT_EQ(published[0].second, *miss.replyTail);
}

// -------------------------------------------------------------------
// Replay into the service LRU
// -------------------------------------------------------------------

TEST(Service, ReplayedEntriesServeWarmHitsWithZeroCompiles)
{
    // Populate donor records, then replay them into a cold service:
    // the first request must be a hit — zero recompiles — with the
    // exact published bytes.
    CompileService donor(2);
    StoreRecord rec_a =
        publishedRecord(donor, "ADDER4", SquareConfig::square());
    StoreRecord rec_b =
        publishedRecord(donor, "ADDER4", SquareConfig::eager());

    CompileService cold(2);
    StoreRecord copy_a = rec_a;
    StoreRecord copy_b = rec_b;
    EXPECT_TRUE(cold.insertReplayed(copy_a.key,
                                    std::move(copy_a.result),
                                    std::move(copy_a.tail)));
    EXPECT_TRUE(cold.insertReplayed(copy_b.key,
                                    std::move(copy_b.result),
                                    std::move(copy_b.tail)));
    // A duplicate replay (a prewarm overlapping the own log) is
    // skipped, not re-inserted.
    StoreRecord dup = rec_a;
    EXPECT_FALSE(cold.insertReplayed(dup.key, std::move(dup.result),
                                     std::move(dup.tail)));

    // Replay is not traffic: the service's stats start clean.
    ServiceStats before = cold.stats();
    EXPECT_EQ(before.requests, 0);
    EXPECT_EQ(before.compiles, 0);
    EXPECT_EQ(before.cachedResults, 2u);
    EXPECT_GT(before.cachedBytes, 0u);

    ServiceReply warm =
        cold.submit(namedRequest("ADDER4", SquareConfig::square()));
    ASSERT_TRUE(warm.error.empty());
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(*warm.replyTail, rec_a.tail);

    ServiceStats s = cold.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.compiles, 0);
    EXPECT_EQ(s.misses, 0);
}

TEST(Service, ReplayRespectsCacheLimitsInRecencyOrder)
{
    CompileService donor(2);
    StoreRecord recs[3] = {
        publishedRecord(donor, "ADDER4", SquareConfig::square()),
        publishedRecord(donor, "ADDER4", SquareConfig::eager()),
        publishedRecord(donor, "ADDER4", SquareConfig::lazy()),
    };

    // Append order is recency order: replaying an over-limit log must
    // keep the most recently appended entries and evict the oldest.
    CacheLimits limits;
    limits.maxEntries = 2;
    CompileService cold(1, limits);
    for (StoreRecord &rec : recs) {
        StoreRecord copy = rec;
        cold.insertReplayed(copy.key, std::move(copy.result),
                            std::move(copy.tail));
    }
    EXPECT_EQ(cold.stats().cachedResults, 2u);

    EXPECT_TRUE(
        cold.submit(namedRequest("ADDER4", SquareConfig::lazy())).hit);
    EXPECT_TRUE(
        cold.submit(namedRequest("ADDER4", SquareConfig::eager()))
            .hit);
    EXPECT_FALSE(
        cold.submit(namedRequest("ADDER4", SquareConfig::square()))
            .hit);
}

TEST(Service, ConcurrentPublishesAppendOneRecordPerKey)
{
    // Four pool workers publish distinct keys at once into one store:
    // the appender must serialize them into whole frames, one each.
    ScratchFile scratch("concurrent.store");
    ArtifactStore store;
    ArtifactStore::Options opts;
    opts.path = scratch.path;
    std::string error;
    ASSERT_TRUE(store.open(
        opts, [](StoreRecord &&) {}, error))
        << error;

    CompileService service(4);
    service.setPublishSink(
        [&store](const CacheKey &key,
                 const std::shared_ptr<const CompileResult> &result,
                 const std::shared_ptr<const std::string> &tail) {
            store.append(key, result, tail);
        });
    constexpr int kThreads = 4;
    constexpr int kKeysEach = 4;
    std::vector<CacheKey> keys(kThreads * kKeysEach);
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t)
        clients.emplace_back([&service, &keys, t] {
            for (int k = 0; k < kKeysEach; ++k) {
                const int slot = t * kKeysEach + k;
                CompileRequest req =
                    namedRequest("ADDER4", SquareConfig::square());
                req.cfg.anchorBoxMargin = 100 + slot;
                ServiceReply r = service.submit(req);
                EXPECT_TRUE(r.error.empty()) << r.error;
                keys[static_cast<size_t>(slot)] = r.key;
            }
        });
    for (std::thread &client : clients)
        client.join();
    store.close();

    uint64_t good_bytes = 0;
    uint64_t corrupt = 0;
    std::vector<StoreRecord> records =
        replayAll(scratch.path, good_bytes, corrupt);
    EXPECT_EQ(corrupt, 0u);
    EXPECT_EQ(good_bytes, scratch.size());
    ASSERT_EQ(records.size(), keys.size());
    for (const CacheKey &key : keys) {
        int found = 0;
        for (const StoreRecord &rec : records)
            found += rec.key == key ? 1 : 0;
        EXPECT_EQ(found, 1) << formatCacheKeyHex(key);
    }
}

// -------------------------------------------------------------------
// Server-level warm restart and pre-warm
// -------------------------------------------------------------------

/** The working set: distinct keys minted from anchor_box_margin. */
std::vector<std::string>
restartLines()
{
    std::vector<std::string> lines;
    for (int k = 0; k < 8; ++k)
        lines.push_back(R"({"id":)" + std::to_string(k) +
                        R"(,"workload":"ADDER4","policy":"square",)"
                        R"("anchor_box_margin":)" +
                        std::to_string(200 + k) + "}");
    return lines;
}

/** A started server over @p store (and @p prewarm). */
std::unique_ptr<CompileServer>
startStoreServer(const std::string &store, const std::string &prewarm)
{
    ServerConfig cfg;
    cfg.storePath = store;
    cfg.prewarmPath = prewarm;
    auto server = std::make_unique<CompileServer>(cfg);
    std::string error;
    EXPECT_TRUE(server->start(error)) << error;
    return server;
}

std::string
serveLine(CompileServer &server, const std::string &line)
{
    bool close_conn = false;
    return server.handleLine(line, close_conn);
}

/** The preserialized tail of a compile reply (after "millis"). */
std::string
replyTailOf(const std::string &reply)
{
    const size_t millis = reply.find("\"millis\": ");
    const size_t tail = reply.find(", ", millis);
    if (millis == std::string::npos || tail == std::string::npos)
        return "";
    return reply.substr(tail + 2);
}

/** Every line answered warm, tails identical to @p golden. */
void
expectWarmReplies(CompileServer &server,
                  const std::vector<std::string> &lines,
                  const std::vector<std::string> &golden)
{
    for (size_t i = 0; i < lines.size(); ++i) {
        SCOPED_TRACE(lines[i]);
        const std::string reply = serveLine(server, lines[i]);
        EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos)
            << reply;
        EXPECT_EQ(replyTailOf(reply), golden[i]);
    }
    const std::string stats = serveLine(server, R"({"cmd":"stats"})");
    EXPECT_NE(stats.find("\"compiles\": 0,"), std::string::npos)
        << stats;
}

TEST(CompileServerStore, RestartOverOwnLogServesEveryKeyWarm)
{
    ScratchFile own("restart.store");
    const std::vector<std::string> lines = restartLines();
    std::vector<std::string> golden;
    {
        auto server = startStoreServer(own.path, "");
        for (const std::string &line : lines) {
            const std::string reply = serveLine(*server, line);
            ASSERT_NE(reply.find("\"cache\": \"miss\""),
                      std::string::npos)
                << reply;
            golden.push_back(replyTailOf(reply));
            ASSERT_FALSE(golden.back().empty()) << reply;
        }
        EXPECT_EQ(server->service().stats().cachedResults,
                  lines.size());
        server->stop(); // drains the appender
    }
    const uint64_t log_bytes = own.size();
    ASSERT_GT(log_bytes, 0u);

    auto restarted = startStoreServer(own.path, "");
    expectWarmReplies(*restarted, lines, golden);
    restarted->stop();
    EXPECT_EQ(own.size(), log_bytes); // hits append nothing
}

TEST(CompileServerStore, PrewarmFromDonorLogServesEveryKeyWarm)
{
    ScratchFile donor("donor.store");
    ScratchFile own("prewarmed.store");
    const std::vector<std::string> lines = restartLines();
    std::vector<std::string> golden;
    {
        auto server = startStoreServer(donor.path, "");
        for (const std::string &line : lines)
            golden.push_back(replyTailOf(serveLine(*server, line)));
        server->stop();
    }
    const uint64_t donor_bytes = donor.size();
    ASSERT_GT(donor_bytes, 0u);

    auto prewarmed = startStoreServer(own.path, donor.path);
    expectWarmReplies(*prewarmed, lines, golden);
    prewarmed->stop();
    // Pre-warmed entries are not re-appended to the own log, and the
    // donor log is read-only.
    EXPECT_EQ(own.size(), 0u);
    EXPECT_EQ(donor.size(), donor_bytes);
}

} // namespace
} // namespace square
