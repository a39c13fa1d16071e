/**
 * @file
 * Counting-allocator regression for the zero-allocation hot path.
 *
 * Compilation must not heap-allocate per gate: topology iteration,
 * routing, scheduling, and the LAA candidate sweep all run on reused
 * member buffers, and Invocation records — including their
 * child-record and ancilla arrays — are trivially-destructible arena
 * slices.  Nor does per-compilation set-up grow with the program:
 * ProgramAnalysis keeps every module's tables in a few program-wide
 * arrays sized before they are filled (9 allocations for any program),
 * and the Executor sizes its layout, heap, AQV, anchor, route and
 * per-depth tables once from the machine and the analysis.  What
 * remains is a fixed set-up of a few dozen allocations, plus the arena
 * chunks and what recomputation adds beyond the forward pass.
 *
 * For scale: the pre-refactor seed performed ~4.8 heap allocations per
 * issued gate on SHA2 (321k total); the arena-backed executor and
 * pair-bucketed interaction rows brought the whole compile to 2.8k,
 * ~96% of them the analysis' per-module tables; with the flat analysis
 * and the sized set-up it is 43.  An RD53 compile on nisq:5x5 went
 * from 177 allocations to 43, and the analysis of MUL64 (130 modules)
 * from 18,231 to 9.
 *
 * The issued/5 bound trips on any reintroduced per-gate allocation (one
 * vector per routed gate pushes the ratio above 1.0); the fixed
 * ceilings keep set-up from growing with module count or width again.
 *
 * This file replaces the global operator new/delete to count, so it
 * must not be linked into any other test binary.  The nothrow forms of
 * new are replaced too, so every block the deletes free came from
 * std::malloc: std::stable_sort takes its buffer from nothrow new, and
 * ASan's own nothrow new would otherwise report an alloc-dealloc
 * mismatch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/compiler.h"
#include "core/policy.h"
#include "ir/analysis.h"
#include "workloads/registry.h"

namespace {
std::atomic<long> g_allocs{0};
std::atomic<bool> g_counting{false};
} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return ::operator new(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return ::operator new(n, std::nothrow);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace square {
namespace {

/** Heap allocations made while @p fn runs. */
template <typename Fn>
long
countAllocations(Fn &&fn)
{
    g_allocs.store(0);
    g_counting.store(true);
    fn();
    g_counting.store(false);
    return g_allocs.load();
}

/**
 * Allocations during one compile on make(boundaryEdge, boundaryEdge)
 * and the issued-operation count: gates plus swaps on a lattice, gates
 * plus braids on a braid machine.
 */
std::pair<long, int64_t>
countCompile(const char *workload, Machine (*make)(int width, int height))
{
    const BenchmarkInfo &info = findBenchmark(workload);
    Program prog = info.build();
    Machine m = make(info.boundaryEdge, info.boundaryEdge);
    CompileResult r;
    const long allocs = countAllocations(
        [&] { r = compile(prog, m, SquareConfig::square(), {}); });
    return {allocs, r.gates + r.swaps + r.sched.braids};
}

/** Expect per-compilation allocations under issued / 5 on @p make. */
void
expectAllocationsBelowIssued(Machine (*make)(int width, int height))
{
    for (const char *workload : {"SALSA20", "SHA2"}) {
        SCOPED_TRACE(workload);
        auto [allocs, issued] = countCompile(workload, make);
        ASSERT_GT(issued, 0);
        // Per-gate allocation would push allocs past issued (ratio >= 1);
        // the per-compilation setup remainder sits under issued / 5.
        EXPECT_LT(allocs, issued / 5)
            << allocs << " heap allocations for " << issued
            << " issued operations";
    }
}

TEST(AllocationFreedom, CompileAllocationsDoNotScaleWithGates)
{
    expectAllocationsBelowIssued(Machine::nisqLattice);
}

TEST(AllocationFreedom, FtCompileAllocationsDoNotScaleWithBraids)
{
    // Braid reservation and the detour search run on reused buffers, so
    // routing a braid allocates nothing.
    expectAllocationsBelowIssued(
        [](int width, int height) { return Machine::ftBraid(width, height); });
}

TEST(AllocationFreedom, AnalysisAllocationsDoNotScaleWithModules)
{
    // MUL64 has 130 modules and 10,978 interaction rows, RD53 five
    // modules and 44 rows; both analyses make the same few allocations.
    for (const char *workload : {"MUL64", "RD53"}) {
        SCOPED_TRACE(workload);
        const Program prog = findBenchmark(workload).build();
        const long allocs =
            countAllocations([&] { ProgramAnalysis analysis(prog); });
        EXPECT_LE(allocs, 32);
    }
}

TEST(AllocationFreedom, NisqScaleCompileSetUpIsSizedOnce)
{
    // A Table II program on its 5x5 lattice: the whole compile, analysis
    // included, is set-up.
    const Program prog = findBenchmark("RD53").build();
    const Machine m = Machine::nisqLattice(5, 5);
    const long allocs = countAllocations(
        [&] { (void)compile(prog, m, SquareConfig::square(), {}); });
    EXPECT_LE(allocs, 64);
}

} // namespace
} // namespace square
