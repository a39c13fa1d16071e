/**
 * @file
 * Compile-service correctness: the content-addressed cache must be
 * sound (hits bit-identical to fresh compilations, keys distinct
 * whenever any semantic config field differs, canonicalization
 * deduping display-only differences) and concurrent duplicate
 * requests must compile exactly once (this binary runs under the CI
 * ThreadSanitizer job).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "fleet/worker_pool.h"
#include "ir/analysis.h"
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

// -------------------------------------------------------------------
// Program fingerprints
// -------------------------------------------------------------------

TEST(Fingerprint, StableAcrossRebuilds)
{
    Program a = makeBenchmark("ADDER4");
    Program b = makeBenchmark("ADDER4");
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, SensitiveToContent)
{
    Program base = makeBenchmark("ADDER4");
    const uint64_t fp = base.fingerprint();

    // Different workloads differ.
    EXPECT_NE(fp, makeBenchmark("RD53").fingerprint());

    // A one-gate change anywhere changes the fingerprint.
    Program mutated = makeBenchmark("ADDER4");
    bool flipped = false;
    for (Module &m : mutated.modules) {
        for (Stmt &s : m.compute) {
            if (s.isGate()) {
                s.gate = s.gate == GateKind::X ? GateKind::Z
                                               : GateKind::X;
                flipped = true;
                break;
            }
        }
        if (flipped)
            break;
    }
    ASSERT_TRUE(flipped);
    EXPECT_NE(fp, mutated.fingerprint());

    // So does a pure arity change.
    Program widened = makeBenchmark("ADDER4");
    widened.modules[0].numAncilla += 1;
    EXPECT_NE(fp, widened.fingerprint());
}

// -------------------------------------------------------------------
// Cache-key canonicalization
// -------------------------------------------------------------------

TEST(CacheKey, SemanticFieldsProduceDistinctKeys)
{
    const uint64_t fp = makeBenchmark("ADDER4").fingerprint();
    const MachineSpec machine = MachineSpec::nisqLattice(5, 5);
    const CacheKey base =
        makeCacheKey(fp, machine, SquareConfig::square());

    // Policy changes the key.
    EXPECT_FALSE(base ==
                 makeCacheKey(fp, machine, SquareConfig::eager()));
    EXPECT_FALSE(base ==
                 makeCacheKey(fp, machine, SquareConfig::lazy()));

    // Anchor-box margin changes the key.
    SquareConfig margin = SquareConfig::square();
    margin.anchorBoxMargin = 8;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, margin));

    // LAA scoring thresholds change the key.
    SquareConfig weights = SquareConfig::square();
    weights.serializationWeight = 0.75;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, weights));
    SquareConfig cap = SquareConfig::square();
    cap.candidateCap = 8;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, cap));

    // CER cost-model toggles change the key.
    SquareConfig horizon = SquareConfig::square();
    horizon.holdHorizon = 0.0;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, horizon));

    // The machine changes the key; the program changes the key.
    EXPECT_FALSE(base == makeCacheKey(fp, MachineSpec::nisqLattice(6, 6),
                                      SquareConfig::square()));
    EXPECT_FALSE(base ==
                 makeCacheKey(makeBenchmark("RD53").fingerprint(),
                              machine, SquareConfig::square()));
}

TEST(CacheKey, CanonicalizationIgnoresInertFields)
{
    const uint64_t fp = makeBenchmark("ADDER4").fingerprint();
    const MachineSpec machine = MachineSpec::nisqLattice(5, 5);
    const CacheKey base =
        makeCacheKey(fp, machine, SquareConfig::square());

    // The display name is not semantic.
    SquareConfig renamed = SquareConfig::square();
    renamed.name = "SQUARE(prod)";
    EXPECT_TRUE(base == makeCacheKey(fp, machine, renamed));

    // resetLatency only matters under MeasureReset.
    SquareConfig latency = SquareConfig::square();
    latency.resetLatency = 1;
    EXPECT_TRUE(base == makeCacheKey(fp, machine, latency));
    EXPECT_FALSE(makeCacheKey(fp, machine,
                              SquareConfig::measureReset(1)) ==
                 makeCacheKey(fp, machine,
                              SquareConfig::measureReset(2)));

    // LAA knobs only matter under locality-aware allocation (eager
    // uses the LIFO allocator).
    SquareConfig eager_a = SquareConfig::eager();
    SquareConfig eager_b = SquareConfig::eager();
    eager_b.anchorBoxMargin = 4;
    eager_b.commWeight = 9.0;
    EXPECT_TRUE(makeCacheKey(fp, machine, eager_a) ==
                makeCacheKey(fp, machine, eager_b));

    // CER toggles only matter under CER reclamation.
    SquareConfig laa_a = SquareConfig::squareLaaOnly();
    SquareConfig laa_b = SquareConfig::squareLaaOnly();
    laa_b.holdHorizon = 0.25;
    laa_b.usePressure = false;
    EXPECT_TRUE(makeCacheKey(fp, machine, laa_a) ==
                makeCacheKey(fp, machine, laa_b));
}

// -------------------------------------------------------------------
// Service cache behaviour
// -------------------------------------------------------------------

TEST(Service, RepeatedRequestSharesOneResult)
{
    CompileService service(2);
    CompileRequest req =
        namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ASSERT_TRUE(first.error.empty());
    EXPECT_FALSE(first.hit);

    ServiceReply second = service.submit(req);
    ASSERT_TRUE(second.error.empty());
    EXPECT_TRUE(second.hit);

    // Pointer equality: the hit *is* the first computation's artifact.
    EXPECT_EQ(first.result.get(), second.result.get());

    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, 2);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.cachedPrograms, 1u);
}

TEST(Service, HitsAreBitIdenticalToFreshCompile)
{
    CompileService service(2);
    for (const SquareConfig &cfg :
         {SquareConfig::square(), SquareConfig::eager(),
          SquareConfig::lazy()}) {
        SCOPED_TRACE(cfg.name);
        CompileRequest req = namedRequest("ADDER4", cfg);
        service.submit(req);
        ServiceReply hit = service.submit(req);
        ASSERT_TRUE(hit.error.empty());
        ASSERT_TRUE(hit.hit);

        Program prog = makeBenchmark("ADDER4");
        Machine machine = req.machine.build();
        CompileResult fresh = compile(prog, machine, cfg, {});
        EXPECT_EQ(hit.result->gates, fresh.gates);
        EXPECT_EQ(hit.result->swaps, fresh.swaps);
        EXPECT_EQ(hit.result->depth, fresh.depth);
        EXPECT_EQ(hit.result->aqv, fresh.aqv);
        EXPECT_EQ(hit.result->qubitsUsed, fresh.qubitsUsed);
        EXPECT_EQ(hit.result->peakLive, fresh.peakLive);
        EXPECT_EQ(hit.result->reclaimCount, fresh.reclaimCount);
        EXPECT_EQ(hit.result->skipCount, fresh.skipCount);
        EXPECT_EQ(hit.result->commFactor, fresh.commFactor);
        EXPECT_EQ(hit.result->primaryFinalSites,
                  fresh.primaryFinalSites);
    }
}

TEST(Service, DifferingConfigFieldsMissSeparately)
{
    CompileService service(2);
    CompileRequest base = namedRequest("ADDER4", SquareConfig::square());
    ServiceReply r1 = service.submit(base);

    CompileRequest margin = base;
    margin.cfg.anchorBoxMargin = 8;
    ServiceReply r2 = service.submit(margin);
    EXPECT_FALSE(r2.hit);
    EXPECT_FALSE(r1.key == r2.key);

    CompileRequest policy = namedRequest("ADDER4", SquareConfig::eager());
    ServiceReply r3 = service.submit(policy);
    EXPECT_FALSE(r3.hit);
    EXPECT_FALSE(r1.key == r3.key);

    // A display-name-only difference is the same computation.
    CompileRequest renamed = base;
    renamed.cfg.name = "SQUARE(prod)";
    ServiceReply r4 = service.submit(renamed);
    EXPECT_TRUE(r4.hit);
    EXPECT_TRUE(r1.key == r4.key);
    EXPECT_EQ(r1.result.get(), r4.result.get());
}

TEST(Service, ExplicitProgramAndWorkloadNameShareKeys)
{
    CompileService service(2);
    ServiceReply by_name =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));

    CompileRequest explicit_req;
    explicit_req.label = "explicit";
    explicit_req.program =
        std::make_shared<const Program>(makeBenchmark("ADDER4"));
    explicit_req.machine = MachineSpec::nisqLattice(5, 5);
    explicit_req.cfg = SquareConfig::square();
    ServiceReply by_program = service.submit(explicit_req);

    // Same content, same key: the explicit program is a hit.
    EXPECT_TRUE(by_program.hit);
    EXPECT_TRUE(by_name.key == by_program.key);
    EXPECT_EQ(by_name.result.get(), by_program.result.get());
}

TEST(Service, FailuresAreRepliesNotCrashes)
{
    CompileService service(2);
    CompileRequest req = namedRequest("SHA2", SquareConfig::lazy());
    req.machine = MachineSpec::nisqLattice(2, 2); // cannot fit
    ServiceReply r = service.submit(req);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.result, nullptr);
    EXPECT_EQ(service.stats().failures, 1);

    // Failed keys are not cached: the retry is a fresh miss, not a
    // replayed error (failures may be environmental).
    ServiceReply again = service.submit(req);
    EXPECT_FALSE(again.hit);
    EXPECT_FALSE(again.error.empty());
    EXPECT_EQ(service.stats().misses, 2);

    CompileRequest bogus;
    bogus.label = "bogus";
    bogus.workload = "NO-SUCH";
    bogus.cfg = SquareConfig::square();
    ServiceReply unknown = service.submit(bogus);
    EXPECT_FALSE(unknown.error.empty());
    EXPECT_EQ(unknown.result, nullptr);
}

TEST(Service, ConcurrentDuplicatesCompileExactlyOnce)
{
    CompileService service(4);
    CompileRequest req =
        namedRequest("SALSA20", SquareConfig::square());

    const int n_threads = 8;
    std::vector<ServiceReply> replies(n_threads);
    int64_t analyses_before = ProgramAnalysis::constructionCount();
    {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t) {
            pool.emplace_back([&service, &req, &replies, t] {
                replies[static_cast<size_t>(t)] = service.submit(req);
            });
        }
        for (std::thread &th : pool)
            th.join();
    }

    // Exactly one compile, one analysis; every thread shares the one
    // immutable result.
    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, n_threads);
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.hits, n_threads - 1);
    EXPECT_EQ(s.analysisComputes, 1);
    EXPECT_EQ(ProgramAnalysis::constructionCount() - analyses_before, 1);
    const CompileResult *shared = replies[0].result.get();
    ASSERT_NE(shared, nullptr);
    for (const ServiceReply &r : replies) {
        EXPECT_TRUE(r.error.empty());
        EXPECT_EQ(r.result.get(), shared);
    }
}

TEST(Service, ReplyTailIsPreserializedOnceAndShared)
{
    // The NDJSON reply tail is encoded exactly once, at publish time,
    // and every hit shares those bytes refcounted — the wire-speed
    // warm path appends them verbatim.  The stored bytes must be
    // identical to a fresh encoding of the result (the serving bench
    // additionally golden-checks them against a fresh compile()).
    CompileService service(1);
    CompileRequest req = namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ASSERT_TRUE(first.error.empty());
    ASSERT_NE(first.replyTail, nullptr);
    EXPECT_EQ(*first.replyTail,
              formatReplyTail(*first.result, first.key));
    EXPECT_NE(first.replyTail->find("\"gates\""), std::string::npos);
    EXPECT_EQ(first.replyTail->back(), '}');

    ServiceReply second = service.submit(req);
    EXPECT_TRUE(second.hit);
    // Pointer-equal: the hit did not re-encode anything.
    EXPECT_EQ(second.replyTail.get(), first.replyTail.get());
}

/** The service's histogram sample counts, by name. */
uint64_t
histogramCount(const CompileService &service, const std::string &name)
{
    for (const auto &[hname, snap] :
         service.metricsRegistry().histogramValues())
        if (hname == name)
            return snap.total;
    return 0;
}

/** The two entry points, driven one request at a time. */
enum class EntryPoint { Submit, Async };

/**
 * Serve @p rounds through @p entry on @p service, each request
 * finishing before the next one starts.
 */
void
serveSequentially(CompileService &service, EntryPoint entry,
                  const std::vector<std::vector<CompileRequest>> &rounds)
{
    for (const std::vector<CompileRequest> &round : rounds) {
        for (const CompileRequest &req : round) {
            if (entry == EntryPoint::Submit) {
                service.submit(req);
                continue;
            }
            std::promise<ServiceReply> done;
            ServiceReply reply;
            if (!service.submitAsync(req, reply,
                                     [&done](ServiceReply &&r) {
                                         done.set_value(std::move(r));
                                     }))
                done.get_future().wait();
        }
    }
}

TEST(Service, EveryEntryPointSharesOneCore)
{
    // One request mix — fresh misses, warm hits, and a compile that
    // fails (and stays retriable) — through submit and submitAsync on
    // two fresh services.  One core behind both means identical
    // counters and identical warm/cold latency sample counts.  Programs
    // ride along explicitly (no name-cache residency).
    auto explicitRequest = [](const std::string &workload,
                              const SquareConfig &cfg) {
        CompileRequest req = namedRequest(workload, cfg);
        req.program =
            std::make_shared<const Program>(makeBenchmark(workload));
        req.workload.clear();
        return req;
    };
    const CompileRequest a = explicitRequest("ADDER4", SquareConfig::square());
    const CompileRequest b = explicitRequest("ADDER4", SquareConfig::eager());
    const CompileRequest c = explicitRequest("RD53", SquareConfig::square());
    CompileRequest fails = explicitRequest("SHA2", SquareConfig::lazy());
    fails.machine = MachineSpec::nisqLattice(2, 2); // cannot fit
    const std::vector<std::vector<CompileRequest>> rounds = {
        {a, b, fails}, {a, c, fails}, {b, c, a}};

    std::vector<ServiceStats> stats;
    std::vector<uint64_t> warm, cold;
    for (EntryPoint entry : {EntryPoint::Submit, EntryPoint::Async}) {
        CompileService service(1);
        serveSequentially(service, entry, rounds);
        stats.push_back(service.stats());
        warm.push_back(histogramCount(service, "warm_latency_us"));
        cold.push_back(histogramCount(service, "cold_latency_us"));
    }

    EXPECT_EQ(stats[0].requests, 9);
    EXPECT_EQ(stats[0].hits, 4);
    EXPECT_EQ(stats[0].misses, 5);
    EXPECT_EQ(stats[0].compiles, 5);
    EXPECT_EQ(stats[0].failures, 2);
    EXPECT_EQ(stats[0].cachedResults, 3u);
    EXPECT_EQ(warm[0], 4u);
    EXPECT_EQ(cold[0], 3u);
    for (size_t i = 1; i < stats.size(); ++i) {
        EXPECT_EQ(stats[i].requests, stats[0].requests);
        EXPECT_EQ(stats[i].hits, stats[0].hits);
        EXPECT_EQ(stats[i].misses, stats[0].misses);
        EXPECT_EQ(stats[i].compiles, stats[0].compiles);
        EXPECT_EQ(stats[i].failures, stats[0].failures);
        EXPECT_EQ(stats[i].evictions, stats[0].evictions);
        EXPECT_EQ(stats[i].analysisComputes, stats[0].analysisComputes);
        EXPECT_EQ(stats[i].cachedResults, stats[0].cachedResults);
        EXPECT_EQ(stats[i].cachedBytes, stats[0].cachedBytes);
        EXPECT_EQ(stats[i].cachedPrograms, stats[0].cachedPrograms);
        EXPECT_EQ(stats[i].shed, stats[0].shed);
        EXPECT_EQ(stats[i].deadlineExpired, stats[0].deadlineExpired);
        EXPECT_EQ(stats[i].workerDeaths, stats[0].workerDeaths);
        EXPECT_EQ(stats[i].pendingCompiles, stats[0].pendingCompiles);
        EXPECT_EQ(warm[i], warm[0]);
        EXPECT_EQ(cold[i], cold[0]);
    }
}

// -------------------------------------------------------------------
// LRU cache bound (CacheLimits)
// -------------------------------------------------------------------

TEST(Lru, EntryBoundEvictsLeastRecentlyUsed)
{
    CacheLimits limits;
    limits.maxEntries = 2;
    CompileService service(1, limits);

    ServiceReply a =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));
    ServiceReply b =
        service.submit(namedRequest("ADDER4", SquareConfig::eager()));
    ASSERT_TRUE(a.error.empty());
    ASSERT_TRUE(b.error.empty());
    EXPECT_EQ(service.stats().evictions, 0);

    // Third unique key: the oldest (a) is evicted, b and c stay.
    ServiceReply c =
        service.submit(namedRequest("ADDER4", SquareConfig::lazy()));
    ASSERT_TRUE(c.error.empty());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.cachedResults, 2u);
    EXPECT_GT(s.cachedBytes, 0u);

    // The evicted key recompiles; the resident ones still hit.
    EXPECT_TRUE(service
                    .submit(namedRequest("ADDER4", SquareConfig::lazy()))
                    .hit);
    ServiceReply a2 =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));
    EXPECT_FALSE(a2.hit);
    ASSERT_TRUE(a2.error.empty());
    // The evicted artifact was recomputed, and identically.
    EXPECT_EQ(a2.result->gates, a.result->gates);
    EXPECT_EQ(a2.result->depth, a.result->depth);
}

TEST(Lru, HitsRefreshRecency)
{
    CacheLimits limits;
    limits.maxEntries = 2;
    CompileService service(1, limits);

    CompileRequest a = namedRequest("ADDER4", SquareConfig::square());
    CompileRequest b = namedRequest("ADDER4", SquareConfig::eager());
    CompileRequest c = namedRequest("ADDER4", SquareConfig::lazy());
    service.submit(a);
    service.submit(b);
    EXPECT_TRUE(service.submit(a).hit); // touch: a is now most recent

    // Inserting c evicts b (the least recently used), not a.
    service.submit(c);
    EXPECT_TRUE(service.submit(a).hit);
    EXPECT_FALSE(service.submit(b).hit);
    EXPECT_EQ(service.stats().evictions, 2); // b, then c on b's return
}

TEST(Lru, OversizedArtifactIsServedButNotRetained)
{
    CacheLimits limits;
    limits.maxBytes = 1; // every result exceeds this
    CompileService service(1, limits);
    CompileRequest req = namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ASSERT_TRUE(first.error.empty());
    ASSERT_NE(first.result, nullptr);
    EXPECT_GT(first.result->gates, 0);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.cachedResults, 0u);
    EXPECT_EQ(s.cachedBytes, 0u);

    // Still correct on the recompile path, just never a hit.
    ServiceReply second = service.submit(req);
    EXPECT_FALSE(second.hit);
    ASSERT_TRUE(second.error.empty());
    EXPECT_EQ(second.result->gates, first.result->gates);
    // The caller's shared_ptr outlives the eviction of its cache slot.
    EXPECT_EQ(first.result->depth, second.result->depth);
}

TEST(Lru, UnderBoundWorkloadBehavesAsUnbounded)
{
    // A bound the workload never reaches must not change hit behaviour
    // vs the unbounded (PR 3) cache: same hits, pointer-equal results,
    // zero evictions.
    CacheLimits limits;
    limits.maxEntries = 100;
    CompileService service(2, limits);
    CompileRequest req = namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ServiceReply second = service.submit(req);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(first.result.get(), second.result.get());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 0);
    EXPECT_EQ(s.cachedResults, 1u);
}

TEST(Lru, EvictionNeverInvalidatesInFlightResults)
{
    // The eviction edge case: a key being evicted while concurrent
    // submits hold (or are about to return) its shared result must not
    // leave any thread with a dangling artifact.  With maxEntries = 1
    // and two alternating keys, every submit races an eviction of the
    // other key.  TSan-covered via the CI job that runs this binary.
    CacheLimits limits;
    limits.maxEntries = 1;
    CompileService service(2, limits);

    const CompileRequest reqs[2] = {
        namedRequest("ADDER4", SquareConfig::square()),
        namedRequest("ADDER4", SquareConfig::eager()),
    };
    // Expected metrics, computed before the churn.
    int64_t expected_gates[2];
    for (int k = 0; k < 2; ++k) {
        Program prog = makeBenchmark(reqs[k].workload);
        Machine machine = reqs[k].machine.build();
        expected_gates[k] =
            compile(prog, machine, reqs[k].cfg, {}).gates;
    }

    const int n_threads = 4;
    const int iterations = 12;
    std::atomic<int> bad{0};
    {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t) {
            pool.emplace_back([&, t] {
                for (int i = 0; i < iterations; ++i) {
                    const int k = (t + i) % 2;
                    ServiceReply r = service.submit(reqs[k]);
                    // The returned artifact must be alive and correct
                    // no matter what the LRU did meanwhile.
                    if (!r.error.empty() || !r.result ||
                        r.result->gates != expected_gates[k])
                        bad.fetch_add(1);
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
    }
    EXPECT_EQ(bad.load(), 0);
    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, n_threads * iterations);
    EXPECT_GT(s.evictions, 0);
    EXPECT_LE(s.cachedResults, 1u);
}

TEST(Lru, EvictedReplyBytesStayValid)
{
    // A reply (or an in-flight transport write) holding the
    // preserialized bytes must keep them valid past eviction of the
    // cache entry: sharing is refcounted, not borrowed.
    CacheLimits limits;
    limits.maxEntries = 1;
    CompileService service(1, limits);

    ServiceReply a =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));
    ASSERT_TRUE(a.error.empty());
    ASSERT_NE(a.replyTail, nullptr);
    const std::string snapshot = *a.replyTail; // copy before eviction

    // Second unique key evicts a's slot (maxEntries = 1).
    ServiceReply b =
        service.submit(namedRequest("ADDER4", SquareConfig::eager()));
    ASSERT_TRUE(b.error.empty());
    EXPECT_GE(service.stats().evictions, 1);

    // The handed-out bytes are untouched by the eviction.
    EXPECT_EQ(*a.replyTail, snapshot);
    EXPECT_EQ(*a.replyTail, formatReplyTail(*a.result, a.key));
}

TEST(Lru, ConcurrentEvictionKeepsReplyBytesValid)
{
    // Eviction churn racing readers of the preserialized bytes: with
    // maxEntries = 1 and two alternating keys, every submit evicts the
    // other key while other threads may be mid-"write" of its bytes.
    // Reading every byte here lets TSan prove eviction never frees or
    // mutates bytes a reply still references.
    CacheLimits limits;
    limits.maxEntries = 1;
    CompileService service(2, limits);

    const CompileRequest reqs[2] = {
        namedRequest("ADDER4", SquareConfig::square()),
        namedRequest("ADDER4", SquareConfig::eager()),
    };
    std::string expected[2];
    for (int k = 0; k < 2; ++k) {
        ServiceReply r = service.submit(reqs[k]);
        ASSERT_TRUE(r.error.empty());
        expected[k] = *r.replyTail;
    }

    const int n_threads = 4;
    const int iterations = 8;
    std::atomic<int> bad{0};
    {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t) {
            pool.emplace_back([&, t] {
                for (int i = 0; i < iterations; ++i) {
                    const int k = (t + i) % 2;
                    ServiceReply r = service.submit(reqs[k]);
                    if (!r.error.empty() || !r.replyTail ||
                        *r.replyTail != expected[k])
                        bad.fetch_add(1);
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
    }
    EXPECT_EQ(bad.load(), 0);
    EXPECT_GT(service.stats().evictions, 0);
}

// -------------------------------------------------------------------
// MachineSpec and protocol round trips
// -------------------------------------------------------------------

TEST(MachineSpec, ParseBuildRoundTrip)
{
    struct Case
    {
        const char *text;
        int sites;
    } const cases[] = {
        {"nisq:5x5", 25},
        {"nisq-macro:4x6", 24},
        {"full:30", 30},
        {"ft:8x8@25", 64},
        {"ft-macro:8x8", 64},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.text);
        MachineSpec spec;
        std::string error;
        ASSERT_TRUE(MachineSpec::parse(c.text, spec, error)) << error;
        EXPECT_EQ(spec.build().numSites(), c.sites);
        // str() round-trips to an equal spec (modulo default latency
        // rendering).
        MachineSpec again;
        ASSERT_TRUE(MachineSpec::parse(spec.str(), again, error));
        EXPECT_EQ(spec.fingerprint(), again.fingerprint());
    }

    MachineSpec spec;
    std::string error;
    EXPECT_FALSE(MachineSpec::parse("nisq:5", spec, error));
    EXPECT_FALSE(MachineSpec::parse("warp:3x3", spec, error));
    EXPECT_FALSE(MachineSpec::parse("nisq:0x5", spec, error));
    EXPECT_FALSE(MachineSpec::parse("full:-2", spec, error));
}

TEST(MachineSpec, MalformedSpecsRejectWithMessages)
{
    // Every malformed form must fail with a diagnostic, never abort —
    // these reach parse() straight off the wire via buildRequest.
    const char *bad[] = {
        "",          "nisq",      "nisq:",      ":5x5",
        "nisq:5x",   "nisq:x5",   "nisq:5x5x5", "nisq:5x5@10",
        "ft:16x16@", "ft:16x16@0", "ft:16x@8",  "ft:@",
        "full:",     "full:0",    "full:2x2",   "nisq-macro:7",
        "nisq:+5x5", "nisq: 5x5", "nisq:5x5 ", "ft:5@3x5",
        "ft:8x8@-1", "full:0x10", "nisq:1000001x1",
        // Every dimension in range, the machine far too large: the
        // site count must not overflow int, and compile time must stay
        // bounded.
        "nisq:50000x50000", "ft:100000x100000", "full:1000000",
    };
    for (const char *text : bad) {
        SCOPED_TRACE(std::string("spec '") + text + "'");
        MachineSpec spec;
        std::string error;
        EXPECT_FALSE(MachineSpec::parse(text, spec, error));
        EXPECT_FALSE(error.empty());
    }

    // The cap itself: the largest accepted machine, then one site more.
    // Leading zeros are digits, as they always were.
    MachineSpec spec;
    std::string error;
    EXPECT_TRUE(MachineSpec::parse("ft:08x8@010", spec, error)) << error;
    EXPECT_EQ(spec.str(), "ft:8x8@10");
    EXPECT_TRUE(MachineSpec::parse("nisq:256x256", spec, error)) << error;
    EXPECT_TRUE(MachineSpec::parse("full:65536", spec, error)) << error;
    EXPECT_FALSE(MachineSpec::parse("full:65537", spec, error));
    EXPECT_NE(error.find("65537 sites"), std::string::npos) << error;

    // And through the protocol: a structured buildRequest failure.
    for (const char *machine :
         {"nisq:0x5", "ft:16x16@", "nisq:50000x50000"}) {
        SCOPED_TRACE(machine);
        JsonRequest json;
        std::string error;
        ASSERT_TRUE(parseJsonLine(std::string(R"({"workload": "ADDER4",)") +
                                      R"( "machine": ")" + machine +
                                      R"("})",
                                  json, error))
            << error;
        CompileRequest req;
        EXPECT_FALSE(buildRequest(json, req, error));
        EXPECT_FALSE(error.empty());
        // The error renders as a well-formed reply line.
        std::string reply = formatError(json, error);
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);
    }
}

TEST(Protocol, TruncatedLinesAreStructuredErrors)
{
    // Truncation points a dying client can tear a request at: all must
    // produce a parse error (and therefore an {"ok": false} reply),
    // never a crash or a silently dropped request.
    const char *truncated[] = {
        R"({"workload": "ADD)",   // torn inside a string
        R"({"workload": )",       // torn before a value
        R"({"workload")",         // torn before the colon
        R"({"workload": "A", )",  // torn after a comma
        R"({)",                   // torn after the brace
    };
    for (const char *line : truncated) {
        SCOPED_TRACE(std::string("line '") + line + "'");
        JsonRequest json;
        std::string error;
        EXPECT_FALSE(parseJsonLine(line, json, error));
        EXPECT_FALSE(error.empty());
        std::string reply = formatError(json, error);
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);
        EXPECT_NE(reply.find("\"error\""), std::string::npos);
    }
}

TEST(Protocol, OnlyJsonNumbersAndBooleansEchoRaw)
{
    // The parser keeps any strtod token as a scalar; echoed unquoted,
    // these would make reply (and forwarded) lines that are not JSON.
    const struct
    {
        const char *token;
        const char *echoed;
    } cases[] = {
        {"nan", R"("nan")"},   {"inf", R"("inf")"},
        {"-infinity", R"("-infinity")"},
        {"0x1F", R"("0x1F")"}, {"+7", R"("+7")"},
        {".5", R"(".5")"},     {"1", "1"},
        {"-2.5e3", "-2.5e3"},  {"true", "true"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.token);
        JsonRequest json;
        std::string error;
        ASSERT_TRUE(parseJsonLine(std::string(R"({"id": )") + c.token +
                                      R"(, "deadline_ms": )" + c.token +
                                      "}",
                                  json, error))
            << error;
        EXPECT_EQ(replyIdPrefix(json),
                  std::string(R"("id": )") + c.echoed + ", ");
        std::string forwarded;
        formatForwardedRequestTo(forwarded, json, 9, CacheKey{});
        EXPECT_NE(forwarded.find(std::string(R"("deadline_ms": )") +
                                 c.echoed + ","),
                  std::string::npos)
            << forwarded;
    }
}

TEST(Protocol, ParseAndBuildRequest)
{
    JsonRequest json;
    std::string error;
    ASSERT_TRUE(parseJsonLine(
        R"({"id": 3, "workload": "SHA2", "machine": "nisq:32x32",)"
        R"( "policy": "eager", "anchor_box_margin": 8})",
        json, error))
        << error;
    CompileRequest req;
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_EQ(req.workload, "SHA2");
    EXPECT_EQ(req.machine.width, 32);
    EXPECT_EQ(req.cfg.reclaim, ReclaimPolicy::Eager);
    EXPECT_EQ(req.cfg.anchorBoxMargin, 8);

    // Defaulted machine: the paper machine for the workload.
    JsonRequest small;
    ASSERT_TRUE(
        parseJsonLine(R"({"workload": "ADDER4"})", small, error));
    CompileRequest dreq;
    ASSERT_TRUE(buildRequest(small, dreq, error));
    EXPECT_EQ(dreq.machine.build().numSites(), 25);

    // Reply id echoing: numeric ids echo raw, string ids (whose
    // quoting the parser stripped) are re-quoted and re-escaped so a
    // hostile id cannot break or inject into the reply object.
    JsonRequest num_id;
    ASSERT_TRUE(parseJsonLine(R"({"id": 42})", num_id, error));
    EXPECT_EQ(formatError(num_id, "x"),
              R"({"id": 42, "ok": false, "error": "x"})");
    JsonRequest str_id;
    ASSERT_TRUE(parseJsonLine(R"({"id": "req-\"1\""})", str_id, error));
    EXPECT_EQ(formatError(str_id, "x"),
              R"({"id": "req-\"1\"", "ok": false, "error": "x"})");

    // Malformed inputs are rejected with messages, never crashes.
    EXPECT_FALSE(parseJsonLine("[1,2]", json, error));
    EXPECT_FALSE(parseJsonLine(R"({"a": {"b": 1}})", json, error));
    EXPECT_FALSE(parseJsonLine(R"({"a": 1)", json, error));
    ASSERT_TRUE(parseJsonLine(R"({"workload": "X", "oops": 1})", json,
                              error));
    EXPECT_FALSE(buildRequest(json, req, error));
    ASSERT_TRUE(parseJsonLine(R"({"policy": "square"})", json, error));
    EXPECT_FALSE(buildRequest(json, req, error)); // missing workload

    // Config doubles must be finite and non-negative, and hold_horizon
    // small enough that hold_horizon * gates fits an int64_t.
    for (const char *key : {"comm_weight", "serialization_weight",
                            "area_weight", "hold_horizon"}) {
        for (const char *bad : {"-1", "-0.25", "nan", "inf", "-inf",
                                "1e999"}) {
            SCOPED_TRACE(std::string(key) + " = " + bad);
            const std::string line =
                std::string(R"({"workload": "Belle-s", ")") + key +
                "\": " + bad + "}";
            ASSERT_TRUE(parseJsonLine(line, json, error)) << error;
            EXPECT_FALSE(buildRequest(json, req, error));
            EXPECT_EQ(error, std::string("bad ") + key);
        }
    }
    for (const char *bad : {"1e300", "1000000.5"}) {
        ASSERT_TRUE(parseJsonLine(
            std::string(R"({"workload": "Belle-s", "hold_horizon": )") +
                bad + "}",
            json, error));
        EXPECT_FALSE(buildRequest(json, req, error)) << bad;
    }
    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "Belle-s", "hold_horizon": 1e6, "comm_weight": 0})",
        json, error));
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_EQ(req.cfg.holdHorizon, 1e6);
    EXPECT_EQ(req.cfg.commWeight, 0.0);
}

TEST(Protocol, NumbersFollowTheWholeTextRule)
{
    // The request numbers share the command line's rule: a sign on a
    // count, a hex float, padding and an underflow are all refused.
    const struct
    {
        const char *field;
        const char *value;
    } bad[] = {
        {"candidate_cap", "\"+16\""},    {"candidate_cap", "+16"},
        {"anchor_box_margin", "\" 16\""}, {"candidate_cap", "0x10"},
        {"comm_weight", "\"0x1p3\""},     {"comm_weight", "0x1p3"},
        {"area_weight", "1e-400"},         {"hold_horizon", "\" 1\""},
        {"deadline_ms", "+250"},           {"serialization_weight", "\"1e\""},
    };
    for (const auto &c : bad) {
        SCOPED_TRACE(std::string(c.field) + " = " + c.value);
        JsonRequest json;
        std::string error;
        ASSERT_TRUE(parseJsonLine(std::string(R"({"workload": "ADDER4", ")") +
                                      c.field + "\": " + c.value + "}",
                                  json, error))
            << error;
        CompileRequest req;
        EXPECT_FALSE(buildRequest(json, req, error));
        EXPECT_EQ(error, std::string("bad ") + c.field);
    }

    // The measure-and-reset latency is read by the same rule, from the
    // one policy table that requests, labels and square_cc share.
    SquareConfig cfg;
    std::string error;
    ASSERT_TRUE(policyConfig("mr:10", cfg, error)) << error;
    EXPECT_EQ(cfg.name, SquareConfig::measureReset(10).name);
    for (const char *policy :
         {"mr:+10", "mr: 10", "mr:0", "mr:1000001", "mr:", "mr:1e1"}) {
        SCOPED_TRACE(policy);
        EXPECT_FALSE(policyConfig(policy, cfg, error));
        EXPECT_NE(error.find("bad measure-reset latency"),
                  std::string::npos);
    }
    EXPECT_FALSE(policyConfig("greedy", cfg, error));
}

TEST(Protocol, RefusalsRoundTripThroughOneShape)
{
    for (const uint64_t hint : {0ull, 250ull, 1000000ull, 3600000ull}) {
        SCOPED_TRACE(hint);
        for (const char *status : {"overloaded", "shard_down"}) {
            std::string line;
            formatRefusalTo(line, "\"id\": 7, ", status,
                            static_cast<double>(hint));
            EXPECT_EQ(line, std::string(R"({"id": 7, "ok": false, )") +
                                R"("status": ")" + status +
                                R"(", "retry_after_ms": )" +
                                std::to_string(hint) + "}");
            uint64_t back = 99;
            ASSERT_TRUE(parseRefusal(line, back)) << line;
            EXPECT_EQ(back, hint);
        }
    }

    // The service's shed reply is that shape, its hint rounded.
    ServiceReply shed;
    shed.status = "overloaded";
    shed.retryAfterMs = 149.6;
    std::string line;
    formatReplyLineTo(line, "", shed);
    EXPECT_EQ(line, R"({"ok": false, "status": "overloaded", )"
                    R"("retry_after_ms": 150})");

    // A malformed or oversized hint reads 0 or the cap, never a wrapped
    // value; anything but the two refusals is not retryable.
    uint64_t hint = 99;
    EXPECT_TRUE(parseRefusal(R"({"ok": false, "status": "shard_down", )"
                             R"("retry_after_ms": 99999999999999999999})",
                             hint));
    EXPECT_EQ(hint, 0u);
    EXPECT_TRUE(parseRefusal(R"({"ok": false, "status": "overloaded", )"
                             R"("retry_after_ms": 1e3})",
                             hint));
    EXPECT_EQ(hint, 0u);
    EXPECT_TRUE(parseRefusal(R"({"ok": false, "status": "overloaded", )"
                             R"("retry_after_ms": 86400000})",
                             hint));
    EXPECT_EQ(hint, kMaxRetryAfterMs);
    EXPECT_FALSE(parseRefusal(
        R"({"ok": false, "status": "deadline_expired", "error": "x"})", hint));
    EXPECT_FALSE(parseRefusal(R"({"id": 1, "ok": true, "cache": "hit"})",
                              hint));
    EXPECT_FALSE(parseRefusal("not json", hint));
}

TEST(Protocol, StatsLineSumsBackFieldByField)
{
    // Every field distinct, scaled by k.
    const auto stats = [](int64_t k) {
        ServiceStats s;
        s.requests = 10 * k;
        s.hits = 7 * k;
        s.misses = 3 * k;
        s.compiles = 2 * k;
        s.failures = 1 * k;
        s.evictions = 4 * k;
        s.analysisComputes = 5 * k;
        s.cachedResults = static_cast<size_t>(6 * k);
        s.cachedBytes = static_cast<size_t>(123456 * k);
        s.cachedPrograms = static_cast<size_t>(8 * k);
        s.shed = 9 * k;
        s.deadlineExpired = 11 * k;
        s.pendingCompiles = static_cast<size_t>(12 * k);
        s.workerDeaths = 13 * k;
        return s;
    };
    const std::string line = formatStats(stats(1));
    EXPECT_EQ(line,
              R"({"ok": true, "requests": 10, "hits": 7, "misses": 3, )"
              R"("compiles": 2, "failures": 1, "evictions": 4, )"
              R"("analysis_computes": 5, "cached_results": 6, )"
              R"("cached_bytes": 123456, "cached_programs": 8, )"
              R"("hit_rate": 0.7000, "shed": 9, "deadline_expired": 11, )"
              R"("pending_compiles": 12, "worker_deaths": 13})");

    // Two shards reporting that line sum to twice every counter.
    JsonRequest json;
    std::string error;
    ASSERT_TRUE(parseJsonLine(line, json, error)) << error;
    ServiceStats sum;
    accumulateStats(json, sum);
    accumulateStats(json, sum);
    EXPECT_EQ(formatStats(sum), formatStats(stats(2)));

    // A malformed counter counts 0, not its numeric prefix.
    ASSERT_TRUE(parseJsonLine(R"({"hits": "5x", "misses": 2})", json,
                              error))
        << error;
    ServiceStats partial;
    accumulateStats(json, partial);
    EXPECT_EQ(partial.hits, 0);
    EXPECT_EQ(partial.misses, 2);
}

TEST(Protocol, DeadlineAndPriorityFieldsParse)
{
    JsonRequest json;
    std::string error;
    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "deadline_ms": 250.5,)"
        R"( "priority": "batch"})",
        json, error))
        << error;
    CompileRequest req;
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_DOUBLE_EQ(req.deadlineMs, 250.5);
    EXPECT_TRUE(req.batch);

    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "priority": "interactive"})", json,
        error));
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_FALSE(req.batch);

    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "priority": "urgent"})", json,
        error));
    EXPECT_FALSE(buildRequest(json, req, error));
    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "deadline_ms": -1})", json, error));
    EXPECT_FALSE(buildRequest(json, req, error));

    // The deadline must be finite and fit a steady_clock duration.
    for (const char *bad : {"1e300", "1e10", "inf", "nan", "-inf"}) {
        ASSERT_TRUE(parseJsonLine(
            std::string(R"({"workload": "ADDER4", "deadline_ms": )") + bad +
                "}",
            json, error));
        EXPECT_FALSE(buildRequest(json, req, error)) << bad;
        EXPECT_EQ(error, "bad deadline_ms");
    }
    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "deadline_ms": 1e9})", json, error));
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_EQ(req.deadlineMs, 1e9);
}

// -------------------------------------------------------------------
// The async cold path (submitAsync) and admission control
// -------------------------------------------------------------------

/**
 * submitAsync for a request that must go asynchronous (a miss, or a
 * duplicate of an in-flight key): its reply arrives through the future.
 */
std::future<ServiceReply>
submitDeferred(CompileService &service, const CompileRequest &req)
{
    auto done = std::make_shared<std::promise<ServiceReply>>();
    std::future<ServiceReply> deferred = done->get_future();
    ServiceReply reply;
    if (service.submitAsync(req, reply, [done](ServiceReply &&r) {
            done->set_value(std::move(r));
        })) {
        ADD_FAILURE() << req.label << " was answered synchronously";
        done->set_value(std::move(reply));
    }
    return deferred;
}

/** A gate the tests use to hold compiles inside the compile hook. */
struct CompileGate
{
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    int parked = 0;

    std::function<void()>
    hook()
    {
        return [this] {
            std::unique_lock<std::mutex> lock(m);
            ++parked;
            cv.notify_all();
            cv.wait(lock, [this] { return open; });
        };
    }

    void
    waitParked(int n)
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this, n] { return parked >= n; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(m);
        open = true;
        cv.notify_all();
    }
};

TEST(AsyncService, WarmHitIsServedSynchronously)
{
    CompileService service(2);
    CompileRequest p = namedRequest("ADDER4", SquareConfig::square());
    ServiceReply warm = service.submit(p);
    ASSERT_TRUE(warm.error.empty());

    ServiceReply reply;
    bool fired = false;
    const bool sync = service.submitAsync(
        p, reply, [&fired](ServiceReply &&) { fired = true; });
    EXPECT_TRUE(sync);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(reply.hit);
    EXPECT_EQ(reply.result.get(), warm.result.get());
    EXPECT_TRUE(reply.status.empty());
}

TEST(AsyncService, MissCompletesThroughCallback)
{
    CompileService service(2);
    CompileRequest p = namedRequest("ADDER4", SquareConfig::square());

    ServiceReply reply = submitDeferred(service, p).get();
    EXPECT_TRUE(reply.error.empty());
    EXPECT_FALSE(reply.hit);
    ASSERT_NE(reply.result, nullptr);
    ASSERT_NE(reply.replyTail, nullptr);
    EXPECT_GT(reply.millis, 0.0);

    // The async compile published into the shared cache: a blocking
    // submit of the same request is a pointer-equal hit.
    ServiceReply hit = service.submit(p);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.result.get(), reply.result.get());

    ServiceStats s = service.stats();
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.pendingCompiles, 0u);
}

TEST(AsyncService, ConcurrentDuplicatesDedupAcrossAsyncAndSync)
{
    // Async waiters, a blocking submit, and the async owner all meet
    // on one in-flight entry and share one compilation.  TSan-covered.
    CompileService service(2);
    CompileGate gate;
    service.setCompileHook(gate.hook());
    CompileRequest p = namedRequest("RD53", SquareConfig::square());

    const int n_async = 4;
    std::vector<std::future<ServiceReply>> done;
    for (int i = 0; i < n_async; ++i)
        done.push_back(submitDeferred(service, p));

    // A blocking duplicate parks on the same entry.
    std::thread blocker_th;
    ServiceReply blocked;
    gate.waitParked(1); // the owner reached the compile
    blocker_th = std::thread(
        [&service, &p, &blocked] { blocked = service.submit(p); });

    gate.release();
    std::vector<ServiceReply> replies;
    replies.reserve(n_async);
    for (std::future<ServiceReply> &f : done)
        replies.push_back(f.get());
    blocker_th.join();

    const CompileResult *shared = replies[0].result.get();
    ASSERT_NE(shared, nullptr);
    for (const ServiceReply &r : replies) {
        EXPECT_TRUE(r.error.empty());
        EXPECT_EQ(r.result.get(), shared);
    }
    EXPECT_EQ(blocked.result.get(), shared);
    EXPECT_TRUE(blocked.hit);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.requests, n_async + 1);
    EXPECT_EQ(s.hits, n_async); // everyone but the async owner
    EXPECT_EQ(s.pendingCompiles, 0u);
}

TEST(AsyncService, OverloadShedsWithRetryAfterAndRecovers)
{
    AdmissionLimits admission;
    admission.maxPending = 1;
    CompileService service(1, {}, admission);
    CompileGate gate;
    service.setCompileHook(gate.hook());

    // First miss claims the only pending slot.
    CompileRequest a = namedRequest("ADDER4", SquareConfig::square());
    std::future<ServiceReply> a_done = submitDeferred(service, a);
    gate.waitParked(1);

    // A different key now sheds synchronously with a backoff hint.
    CompileRequest b = namedRequest("ADDER4", SquareConfig::eager());
    ServiceReply shed;
    bool fired = false;
    EXPECT_TRUE(service.submitAsync(
        b, shed, [&fired](ServiceReply &&) { fired = true; }));
    EXPECT_FALSE(fired);
    EXPECT_EQ(shed.status, "overloaded");
    EXPECT_GT(shed.retryAfterMs, 0.0);
    EXPECT_EQ(shed.result, nullptr);

    // Duplicates of the IN-FLIGHT key are never shed: they cost no
    // compile capacity.
    std::future<ServiceReply> dup = submitDeferred(service, a);

    gate.release();
    EXPECT_TRUE(a_done.get().error.empty());
    EXPECT_TRUE(dup.get().hit);

    // Recovery: the shed key is admitted once the queue drains.
    ServiceReply retried = service.submit(b);
    EXPECT_TRUE(retried.error.empty());
    EXPECT_TRUE(retried.status.empty());
    ASSERT_NE(retried.result, nullptr);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.compiles, 2);
    EXPECT_EQ(s.pendingCompiles, 0u);
}

TEST(AsyncService, BatchTierShedsBeforeInteractive)
{
    AdmissionLimits admission;
    admission.maxPending = 4; // batch admitted while pending < 2
    CompileService service(1, {}, admission);
    CompileGate gate;
    service.setCompileHook(gate.hook());

    // Two unique misses occupy the batch tier's share of the queue.
    SquareConfig cfg_a = SquareConfig::square();
    cfg_a.anchorBoxMargin = 101;
    SquareConfig cfg_b = SquareConfig::square();
    cfg_b.anchorBoxMargin = 102;
    std::future<ServiceReply> done_a =
        submitDeferred(service, namedRequest("ADDER4", cfg_a));
    std::future<ServiceReply> done_b =
        submitDeferred(service, namedRequest("ADDER4", cfg_b));
    gate.waitParked(1);

    // pending == 2: a batch-tier miss is shed while an interactive
    // miss is still admitted.
    SquareConfig cfg_c = SquareConfig::square();
    cfg_c.anchorBoxMargin = 103;
    CompileRequest batch_req = namedRequest("ADDER4", cfg_c);
    batch_req.batch = true;
    ServiceReply batch_reply;
    EXPECT_TRUE(service.submitAsync(batch_req, batch_reply,
                                    [](ServiceReply &&) {}));
    EXPECT_EQ(batch_reply.status, "overloaded");

    SquareConfig cfg_d = SquareConfig::square();
    cfg_d.anchorBoxMargin = 104;
    std::future<ServiceReply> done_d =
        submitDeferred(service, namedRequest("ADDER4", cfg_d));

    gate.release();
    EXPECT_TRUE(done_a.get().error.empty());
    EXPECT_TRUE(done_b.get().error.empty());
    EXPECT_TRUE(done_d.get().error.empty());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.compiles, 3);
}

TEST(AsyncService, BatchTierAdmittedWhenIdle)
{
    // At maxPending 1 half the cap rounds down to no slot at all; the
    // batch share keeps one, so an idle service compiles a batch miss
    // and sheds a second one only while the first holds the slot.
    AdmissionLimits admission;
    admission.maxPending = 1;
    CompileService service(1, {}, admission);
    CompileGate gate;
    service.setCompileHook(gate.hook());

    CompileRequest first = namedRequest("ADDER4", SquareConfig::square());
    first.batch = true;
    std::future<ServiceReply> done = submitDeferred(service, first);
    // The gate holds an admitted compile, so a ready reply was a shed.
    const bool answered = done.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready;
    ASSERT_FALSE(answered) << "a batch miss on an idle service was shed";
    gate.waitParked(1);

    CompileRequest second = namedRequest("ADDER4", SquareConfig::eager());
    second.batch = true;
    ServiceReply shed;
    EXPECT_TRUE(service.submitAsync(second, shed, [](ServiceReply &&) {}));
    EXPECT_EQ(shed.status, "overloaded");

    gate.release();
    EXPECT_TRUE(done.get().error.empty());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.compiles, 1);
}

TEST(AsyncService, EveryEntryPointShedsOverMaxPending)
{
    // With the one compile slot held by a parked compile, a fresh miss
    // is shed the same way through both entry points: a structured
    // "overloaded" reply with a backoff hint, counted once.
    for (EntryPoint entry : {EntryPoint::Submit, EntryPoint::Async}) {
        SCOPED_TRACE(static_cast<int>(entry));
        AdmissionLimits admission;
        admission.maxPending = 1;
        CompileService service(1, {}, admission);
        CompileGate gate;
        service.setCompileHook(gate.hook());
        std::future<ServiceReply> held_done = submitDeferred(
            service, namedRequest("ADDER4", SquareConfig::square()));
        gate.waitParked(1);

        CompileRequest fresh = namedRequest("ADDER4", SquareConfig::eager());
        ServiceReply shed;
        if (entry == EntryPoint::Submit)
            shed = service.submit(fresh);
        else
            EXPECT_TRUE(service.submitAsync(fresh, shed,
                                            [](ServiceReply &&) {}));
        EXPECT_EQ(shed.status, "overloaded");
        EXPECT_GT(shed.retryAfterMs, 0.0);
        EXPECT_EQ(shed.result, nullptr);

        gate.release();
        EXPECT_TRUE(held_done.get().error.empty());
        ServiceStats s = service.stats();
        EXPECT_EQ(s.shed, 1);
        EXPECT_EQ(s.compiles, 1);
        EXPECT_EQ(histogramCount(service, "shed_retry_ms"), 1u);
    }
}

TEST(AsyncService, ResolveFailureRepliesSynchronously)
{
    // An unknown workload never reaches the claim step: it is answered
    // on the calling thread, counted as one request and one failure.
    CompileService service(1);
    CompileRequest bogus = namedRequest("ADDER4", SquareConfig::square());
    bogus.workload = "NO-SUCH-WORKLOAD";
    ServiceReply reply;
    bool fired = false;
    EXPECT_TRUE(service.submitAsync(
        bogus, reply, [&fired](ServiceReply &&) { fired = true; }));
    EXPECT_FALSE(fired);
    EXPECT_FALSE(reply.error.empty());
    EXPECT_EQ(reply.result, nullptr);
    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, 1);
    EXPECT_EQ(s.failures, 1);
    EXPECT_EQ(s.misses, 0);
}

TEST(AsyncService, ExpiredDeadlineCancelsBeforeCompiling)
{
    CompileService service(1);
    CompileGate gate;
    service.setCompileHook(gate.hook());

    // A long compile occupies the single pool worker...
    std::future<ServiceReply> a_done = submitDeferred(
        service, namedRequest("ADDER4", SquareConfig::square()));
    gate.waitParked(1);

    // ...while a deadline-carrying miss queues behind it.
    CompileRequest b = namedRequest("ADDER4", SquareConfig::eager());
    b.deadlineMs = 1;
    std::future<ServiceReply> b_done = submitDeferred(service, b);

    // Let the deadline lapse before the worker frees up, then release.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();

    EXPECT_TRUE(a_done.get().error.empty());
    ServiceReply expired = b_done.get();
    EXPECT_EQ(expired.status, "deadline_expired");
    EXPECT_EQ(expired.result, nullptr);

    // The cancelled key stays retriable and compiles cleanly now.  The
    // retry drops the lapsed budget: a blocking submit honors deadlines
    // exactly like the async path.
    b.deadlineMs = 0;
    ServiceReply retried = service.submit(b);
    EXPECT_TRUE(retried.error.empty());
    EXPECT_TRUE(retried.status.empty());
    ASSERT_NE(retried.result, nullptr);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.deadlineExpired, 1);
    EXPECT_EQ(s.compiles, 2); // a, and b's retry — never b's original
    EXPECT_EQ(s.pendingCompiles, 0u);
}

// -------------------------------------------------------------------
// WorkerPool: the async compile pool's own contract
// -------------------------------------------------------------------

TEST(WorkerPool, RunsEveryPostedJob)
{
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    std::promise<void> all;
    const int n = 16;
    for (int i = 0; i < n; ++i) {
        pool.post([&ran, &all] {
            if (ran.fetch_add(1) + 1 == n)
                all.set_value();
        });
    }
    all.get_future().wait();
    EXPECT_EQ(ran.load(), n);
    pool.stop();
    EXPECT_EQ(pool.deaths(), 0);
}

TEST(WorkerPool, DeathHookRequeuesJobAndRespawnsWorker)
{
    WorkerPool pool(1);
    std::atomic<int> deaths_left{3};
    pool.setDeathHook([&deaths_left] {
        return deaths_left.fetch_sub(1) > 0; // die 3 times, then run
    });
    std::promise<void> ran;
    pool.post([&ran] { ran.set_value(); });
    ran.get_future().wait(); // the job survived its 3 dead workers
    EXPECT_EQ(pool.deaths(), 3);
    EXPECT_EQ(pool.workers(), 1);
    pool.stop();
}

} // namespace
} // namespace square
