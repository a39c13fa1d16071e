/**
 * @file
 * Quickstart: build a small modular program with the C++ DSL, compile
 * it for a NISQ lattice under each policy, and inspect the metrics.
 *
 * The program is the paper's Fig. 6 example: a function computing
 * (in0 AND in1) XOR in2 into an output qubit through one ancilla, with
 * a compute / store / (auto) uncompute structure.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "arch/machine.h"
#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "sim/reference.h"

using namespace square;

int
main()
{
    // ---- 1. Build the program with the fluent DSL -------------------
    ProgramBuilder pb;

    auto fun1 = pb.module("fun1", /*params=*/4, /*ancilla=*/1);
    // Compute: anc = (in0 AND in1) XOR in2
    fun1.toffoli(fun1.p(0), fun1.p(1), fun1.a(0));
    fun1.cnot(fun1.p(2), fun1.a(0));
    // Store: copy the result out; Uncompute is synthesized (Inverse()).
    fun1.inStore().cnot(fun1.a(0), fun1.p(3));

    auto top = pb.module("main", 4, 0);
    top.inStore().call(fun1.id(),
                       {top.p(0), top.p(1), top.p(2), top.p(3)});

    Program prog = pb.build("main");

    std::printf("==== program (mini-Scaffold serialization) ====\n%s\n",
                printProgram(prog).c_str());

    // ---- 2. Check functional behaviour on the reference simulator ---
    // inputs: in0=1, in1=1, in2=0, out=0  ->  out = 1.
    uint64_t out = simulateReferenceBits(prog, 0b0011);
    std::printf("reference: inputs 110 -> out=%llu (expect 1)\n\n",
                static_cast<unsigned long long>((out >> 3) & 1));

    // ---- 3. Compile for a 4x4 NISQ lattice under each policy --------
    std::printf("%-18s %8s %8s %8s %8s %10s\n", "policy", "gates",
                "swaps", "depth", "peak", "AQV");
    for (const SquareConfig &cfg :
         {SquareConfig::lazy(), SquareConfig::eager(),
          SquareConfig::square()}) {
        Machine m = Machine::nisqLattice(4, 4);
        CompileResult r = compile(prog, m, cfg, {});
        std::printf("%-18s %8lld %8lld %8lld %8d %10lld\n",
                    cfg.name.c_str(), static_cast<long long>(r.gates),
                    static_cast<long long>(r.swaps),
                    static_cast<long long>(r.depth), r.peakLive,
                    static_cast<long long>(r.aqv));
    }

    // ---- 4. Record and print the head of a timed schedule -----------
    Machine m = Machine::nisqLattice(4, 4);
    VectorTrace schedule;
    CompileOptions opts;
    opts.extraSink = &schedule;
    compile(prog, m, SquareConfig::square(), opts);
    const std::vector<TimedGate> &gates = schedule.gates();
    std::printf("\nfirst scheduled instructions (time, gate, sites):\n");
    for (size_t i = 0; i < gates.size() && i < 8; ++i) {
        const TimedGate &g = gates[i];
        std::printf("  t=%-4lld %-8s", static_cast<long long>(g.start),
                    std::string(gateName(g.kind)).c_str());
        for (int k = 0; k < g.arity; ++k)
            std::printf(" q%d", g.sites[static_cast<size_t>(k)]);
        std::printf("\n");
    }
    std::printf("  ... %zu instructions total\n", gates.size());
    return 0;
}
