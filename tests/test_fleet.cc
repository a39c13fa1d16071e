/**
 * @file
 * Parallel compilation determinism: requests submitted through
 * CompileService::submitAsync without waiting run their unique misses
 * in parallel on the service's worker pool, and every result must be
 * bit-identical to a serial run of the same requests, regardless of
 * worker count or thread scheduling.  This is the contract that makes the re-entrant
 * CompileContext design observable: any hidden shared mutable state
 * between concurrent compilations shows up here (and under the CI
 * ThreadSanitizer job, which runs exactly this binary).
 *
 * Also covers the policy-configuration units for the MeasureReset and
 * Forced reclamation policies.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/latch.h"
#include "core/compiler.h"
#include "core/policy.h"
#include "ir/analysis.h"
#include "service/service.h"
#include "workloads/registry.h"

namespace square {
namespace {

/** One shared immutable Program per unique workload name. */
std::shared_ptr<const Program>
sharedWorkload(const std::string &workload)
{
    static std::map<std::string, std::shared_ptr<const Program>> cache;
    auto [it, inserted] = cache.try_emplace(workload, nullptr);
    if (inserted)
        it->second =
            std::make_shared<const Program>(makeBenchmark(workload));
    return it->second;
}

/** A request carrying the workload's shared Program explicitly. */
CompileRequest
registryRequest(const std::string &workload, const SquareConfig &cfg)
{
    CompileRequest req;
    req.label = workload + "/" + cfg.name;
    req.program = sharedWorkload(workload);
    req.machine = MachineSpec::paperFor(findBenchmark(workload));
    req.cfg = cfg;
    return req;
}

/** The mixed batch: heterogeneous workloads, machines, and policies. */
std::vector<CompileRequest>
mixedBatch()
{
    std::vector<CompileRequest> reqs;
    for (const char *name : {"SALSA20", "ADDER32", "Belle", "Belle-s"}) {
        reqs.push_back(registryRequest(name, SquareConfig::square()));
        reqs.push_back(registryRequest(name, SquareConfig::eager()));
        reqs.push_back(registryRequest(name, SquareConfig::lazy()));
    }
    return reqs;
}

void
expectIdentical(const CompileResult &a, const CompileResult &b)
{
    EXPECT_EQ(a.gates, b.gates);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.aqv, b.aqv);
    EXPECT_EQ(a.qubitsUsed, b.qubitsUsed);
    EXPECT_EQ(a.peakLive, b.peakLive);
    EXPECT_EQ(a.reclaimCount, b.reclaimCount);
    EXPECT_EQ(a.skipCount, b.skipCount);
    EXPECT_EQ(a.commFactor, b.commFactor);
    EXPECT_EQ(a.primaryInitialSites, b.primaryInitialSites);
    EXPECT_EQ(a.primaryFinalSites, b.primaryFinalSites);
    ASSERT_EQ(a.usageCurve.size(), b.usageCurve.size());
    for (size_t i = 0; i < a.usageCurve.size(); ++i) {
        EXPECT_EQ(a.usageCurve[i].time, b.usageCurve[i].time);
        EXPECT_EQ(a.usageCurve[i].live, b.usageCurve[i].live);
    }
}

/**
 * Submit every request before waiting on any, so the unique misses
 * compile in parallel on the pool; replies in request order.
 */
std::vector<ServiceReply>
submitAll(CompileService &service, const std::vector<CompileRequest> &reqs)
{
    std::vector<ServiceReply> replies(reqs.size());
    Latch done(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        ServiceReply &reply = replies[i];
        if (service.submitAsync(reqs[i], reply,
                                [&reply, &done](ServiceReply &&r) {
                                    reply = std::move(r);
                                    done.arrive();
                                }))
            done.arrive();
    }
    done.wait();
    return replies;
}

/** A direct compile() of @p req with a freshly rebuilt Program. */
CompileResult
rebuiltCompile(const CompileRequest &req)
{
    const std::string workload = req.label.substr(0, req.label.find('/'));
    Program rebuilt = makeBenchmark(workload);
    Machine machine = req.machine.build();
    return compile(rebuilt, machine, req.cfg, {});
}

TEST(ParallelCompile, MatchesSerialBitIdentically)
{
    std::vector<CompileRequest> reqs = mixedBatch();

    CompileService serial(1);
    CompileService parallel(8);
    std::vector<ServiceReply> one = submitAll(serial, reqs);
    std::vector<ServiceReply> eight = submitAll(parallel, reqs);

    ASSERT_EQ(one.size(), reqs.size());
    ASSERT_EQ(eight.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(reqs[i].label + " (request " + std::to_string(i) +
                     ")");
        EXPECT_EQ(one[i].label, reqs[i].label);
        EXPECT_EQ(eight[i].label, reqs[i].label);
        ASSERT_TRUE(one[i].error.empty()) << one[i].error;
        ASSERT_TRUE(eight[i].error.empty()) << eight[i].error;
        expectIdentical(*one[i].result, *eight[i].result);
    }
    EXPECT_EQ(parallel.workers(), 8);
    for (CompileService *service : {&serial, &parallel}) {
        ServiceStats s = service->stats();
        EXPECT_EQ(s.compiles, static_cast<int64_t>(reqs.size()));
        EXPECT_EQ(s.failures, 0);
        EXPECT_EQ(s.pendingCompiles, 0u);
    }
}

TEST(ParallelCompile, MatchesDirectCompile)
{
    // The service adds no hidden state: each reply equals a direct
    // compile() of the same (program, machine, policy).
    std::vector<CompileRequest> reqs = {
        registryRequest("SALSA20", SquareConfig::square()),
        registryRequest("Belle-s", SquareConfig::eager()),
    };
    CompileService service(4);
    std::vector<ServiceReply> replies = submitAll(service, reqs);
    ASSERT_EQ(replies.size(), 2u);
    for (size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(reqs[i].label);
        ASSERT_NE(replies[i].result, nullptr) << replies[i].error;
        Machine m = reqs[i].machine.build();
        CompileResult direct = compile(*reqs[i].program, m, reqs[i].cfg, {});
        expectIdentical(*replies[i].result, direct);
    }
}

TEST(ParallelCompile, SharedProgramMatchesRebuildPathBitIdentically)
{
    // Sharing one immutable Program (and one ProgramAnalysis) across
    // replicas must change nothing observable: every reply is
    // bit-identical to rebuilding the program from scratch and running
    // a plain compile() with an internally computed analysis.
    std::vector<CompileRequest> reqs;
    for (int margin = 0; margin < 3; ++margin) {
        SquareConfig square = SquareConfig::square();
        square.anchorBoxMargin += margin;
        reqs.push_back(registryRequest("SALSA20", square));
        reqs.push_back(registryRequest("ADDER32", SquareConfig::eager()));
    }
    CompileService service(4);
    std::vector<ServiceReply> shared = submitAll(service, reqs);
    ASSERT_EQ(shared.size(), reqs.size());
    EXPECT_EQ(service.stats().failures, 0);

    for (size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(reqs[i].label + " (request " + std::to_string(i) +
                     ")");
        ASSERT_NE(shared[i].result, nullptr) << shared[i].error;
        expectIdentical(*shared[i].result, rebuiltCompile(reqs[i]));
    }
}

TEST(ParallelCompile, AnalysisComputedOncePerUniqueProgram)
{
    // 4 replicas x 3 policies per workload, 2 unique workloads: the
    // service must analyze each unique program fingerprint exactly
    // once.
    std::vector<CompileRequest> reqs;
    for (int r = 0; r < 4; ++r) {
        for (const char *name : {"SALSA20", "Belle-s"}) {
            reqs.push_back(registryRequest(name, SquareConfig::square()));
            reqs.push_back(registryRequest(name, SquareConfig::eager()));
            reqs.push_back(registryRequest(name, SquareConfig::lazy()));
        }
    }
    CompileService service(8);
    int64_t before = ProgramAnalysis::constructionCount();
    std::vector<ServiceReply> first = submitAll(service, reqs);
    int64_t after = ProgramAnalysis::constructionCount();
    for (const ServiceReply &r : first)
        EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(after - before, 2);
    EXPECT_EQ(service.stats().compiles, 6); // 2 workloads x 3 policies
    EXPECT_EQ(service.stats().analysisComputes, 2);

    // The service's analysis cache carries across requests: a second
    // round of fresh keys (another machine) over the same programs
    // compiles again but analyzes nothing.
    for (CompileRequest &req : reqs)
        req.machine.kind = MachineSpec::Kind::NisqLatticeMacro;
    submitAll(service, reqs);
    EXPECT_EQ(service.stats().compiles, 12);
    EXPECT_EQ(service.stats().analysisComputes, 2);
    EXPECT_EQ(ProgramAnalysis::constructionCount(), after);
}

TEST(ParallelCompile, FailedRequestFailsAlone)
{
    // A program that cannot fit its machine fails its own request only.
    std::vector<CompileRequest> reqs = {
        registryRequest("SALSA20", SquareConfig::square()),
        registryRequest("SHA2", SquareConfig::lazy()),
    };
    // SHA2 under LAZY on a tiny machine cannot fit: 4 sites.
    reqs[1].machine = MachineSpec::nisqLattice(2, 2);
    CompileService service(2);
    std::vector<ServiceReply> replies = submitAll(service, reqs);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_TRUE(replies[0].error.empty());
    ASSERT_NE(replies[0].result, nullptr);
    EXPECT_GT(replies[0].result->gates, 0);
    EXPECT_FALSE(replies[1].error.empty());
    EXPECT_EQ(replies[1].result, nullptr);
    EXPECT_EQ(service.stats().failures, 1);
}

// -------------------------------------------------------------------
// Policy-configuration units: MeasureReset and Forced
// -------------------------------------------------------------------

TEST(PolicyConfig, MeasureResetFactoryAndSemantics)
{
    SquareConfig cfg = SquareConfig::measureReset(500);
    EXPECT_EQ(cfg.reclaim, ReclaimPolicy::MeasureReset);
    EXPECT_EQ(cfg.alloc, AllocPolicy::Locality);
    EXPECT_EQ(cfg.resetLatency, 500);
    EXPECT_EQ(cfg.name, "M&R(500)");

    // Every invocation with ancilla resets them: reclaim count matches
    // the eager policy's, no uncompute gates are issued, and each reset
    // pays the latency (visible in the depth).
    const BenchmarkInfo &info = findBenchmark("ADDER4");
    Program prog = info.build();
    Machine m1 = Machine::nisqLattice(5, 5);
    CompileResult mr = compile(prog, m1, cfg, {});
    EXPECT_GT(mr.reclaimCount, 0);
    EXPECT_EQ(mr.uncomputeIrGates, 0);
    EXPECT_GE(mr.depth, cfg.resetLatency);

    Machine m2 = Machine::nisqLattice(5, 5);
    CompileResult eager = compile(prog, m2, SquareConfig::eager(), {});
    EXPECT_EQ(mr.reclaimCount, eager.reclaimCount);
    EXPECT_GT(eager.uncomputeIrGates, 0);
}

TEST(PolicyConfig, ForcedFactoryAndScriptConsumption)
{
    SquareConfig cfg = SquareConfig::forced({true, false, true});
    EXPECT_EQ(cfg.reclaim, ReclaimPolicy::Forced);
    EXPECT_EQ(cfg.alloc, AllocPolicy::Locality);
    EXPECT_EQ(cfg.name, "FORCED");
    ASSERT_EQ(cfg.forcedDecisions.size(), 3u);
    EXPECT_TRUE(cfg.forcedDecisions[0]);
    EXPECT_FALSE(cfg.forcedDecisions[1]);
    EXPECT_TRUE(cfg.forcedDecisions[2]);

    const BenchmarkInfo &info = findBenchmark("ADDER4");
    Program prog = info.build();

    // All-keep script: identical to lazy reclamation under the same
    // (locality-aware) allocator, i.e. SQUARE(LAA only).
    Machine m1 = Machine::nisqLattice(5, 5);
    CompileResult keep = compile(prog, m1, SquareConfig::forced({}), {});
    EXPECT_EQ(keep.reclaimCount, 0);
    Machine m2 = Machine::nisqLattice(5, 5);
    CompileResult laa =
        compile(prog, m2, SquareConfig::squareLaaOnly(), {});
    EXPECT_EQ(keep.gates, laa.gates);
    EXPECT_EQ(keep.swaps, laa.swaps);
    EXPECT_EQ(keep.aqv, laa.aqv);
    EXPECT_EQ(keep.skipCount, laa.skipCount);

    // All-reclaim script: every Free point with garbage uncomputes.
    std::vector<bool> all_true(
        static_cast<size_t>(keep.skipCount), true);
    Machine m3 = Machine::nisqLattice(5, 5);
    CompileResult reclaim =
        compile(prog, m3, SquareConfig::forced(all_true), {});
    EXPECT_EQ(reclaim.skipCount, 0);
    EXPECT_GT(reclaim.reclaimCount, 0);
    EXPECT_GT(reclaim.uncomputeIrGates, 0);
}

} // namespace
} // namespace square
