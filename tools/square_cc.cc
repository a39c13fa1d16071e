/**
 * @file
 * square_cc: command-line driver for the SQUARE compiler.
 *
 * Compiles a mini-Scaffold source file or a named built-in benchmark
 * for one machine and policy, printing the metric summary and
 * optionally the program, the timed schedule or the qubit-usage curve.
 *
 *   square_cc --bench=SHA2 --machine=ft:32x32@10 --policy=mr:10
 *   square_cc --file=prog.sqr --print --trace=20
 *
 * Flags:
 *   --bench=NAME    a registry benchmark (see --list)
 *   --file=PATH     a mini-Scaffold source file; exactly one of
 *                   --bench and --file is required
 *   --machine=SPEC  MachineSpec text (service/machine_spec.h):
 *                   nisq:WxH, nisq-macro:WxH, full:N, ft:WxH[@T] or
 *                   ft-macro:WxH[@T] (default: the paper machine for a
 *                   benchmark, nisq:8x8 for a file)
 *   --policy=NAME   square | eager | lazy | laa | mr:<latency>, the
 *                   protocol's policy table (default square)
 *   --print         print the program before compiling it
 *   --trace=N       print the first N gates of the timed schedule
 *   --curve         print the qubit-usage curve
 *   --list          list the registry benchmarks and exit
 *
 * A malformed value or an unknown flag exits 1 naming it (the flag
 * table in common/flags.h); so does a program that fails to load or
 * compile.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "core/compiler.h"
#include "ir/printer.h"
#include "lang/parser.h"
#include "service/machine_spec.h"
#include "service/protocol.h"
#include "workloads/registry.h"

using namespace square;

int
main(int argc, char **argv)
{
    std::string bench_name, file_name;
    std::optional<MachineSpec> machine;
    SquareConfig cfg = SquareConfig::square();
    bool print_program = false, print_curve = false, list = false;
    int trace_head = 0;
    const std::vector<Flag> flags = {
        textFlag("bench", "NAME", bench_name),
        textFlag("file", "PATH", file_name),
        {"machine", "SPEC",
         [&machine](std::string_view text, std::string &why) {
             return MachineSpec::parse(std::string(text), machine.emplace(),
                                       why);
         }},
        {"policy", "NAME",
         [&cfg](std::string_view name, std::string &why) {
             return policyConfig(std::string(name), cfg, why);
         }},
        switchFlag("print", print_program),
        intFlag("trace", trace_head, 0, std::numeric_limits<int>::max()),
        switchFlag("curve", print_curve),
        switchFlag("list", list),
    };
    if (!parseFlags(argc, argv, flags))
        return 1;
    if (list) {
        std::printf("%-12s %-6s %s\n", "name", "scale", "description");
        for (const BenchmarkInfo &b : benchmarkRegistry()) {
            std::printf("%-12s %-6s %s\n", b.name.c_str(),
                        b.nisqScale ? "NISQ" : "large",
                        b.description.c_str());
        }
        return 0;
    }
    if (bench_name.empty() == file_name.empty()) {
        printUsage(argv[0], flags);
        return 1;
    }

    try {
        Program prog;
        MachineSpec fallback = MachineSpec::nisqLattice(8, 8);
        if (!bench_name.empty()) {
            const BenchmarkInfo &info = findBenchmark(bench_name);
            prog = info.build();
            fallback = MachineSpec::paperFor(info);
        } else {
            std::ifstream in(file_name);
            if (!in)
                fatal("cannot open ", file_name);
            std::ostringstream text;
            text << in.rdbuf();
            prog = parseProgram(text.str());
        }

        if (print_program)
            std::printf("%s\n", printProgram(prog).c_str());

        VectorTrace schedule;
        CompileOptions opts;
        if (trace_head > 0)
            opts.extraSink = &schedule;
        const CompileResult r =
            compile(prog, machine.value_or(fallback).build(), cfg, opts);

        std::printf("machine   : %s\n", r.machineLabel.c_str());
        std::printf("policy    : %s\n", r.policyLabel.c_str());
        std::printf("gates     : %lld (1q %lld, 2q %lld, T %lld, "
                    "Toffoli %lld)\n",
                    static_cast<long long>(r.gates),
                    static_cast<long long>(r.sched.oneQubitGates),
                    static_cast<long long>(r.sched.twoQubitGates),
                    static_cast<long long>(r.sched.tGates),
                    static_cast<long long>(r.sched.toffoliGates));
        std::printf("swaps     : %lld\n",
                    static_cast<long long>(r.swaps));
        std::printf("depth     : %lld cycles\n",
                    static_cast<long long>(r.depth));
        std::printf("qubits    : peak %d live, %d sites touched\n",
                    r.peakLive, r.qubitsUsed);
        std::printf("AQV       : %lld\n", static_cast<long long>(r.aqv));
        std::printf("reclaims  : %d (skipped %d)\n", r.reclaimCount,
                    r.skipCount);
        std::printf("comm S    : %.3f\n", r.commFactor);

        if (trace_head > 0) {
            std::printf("\nschedule head:\n");
            const std::vector<TimedGate> &gates = schedule.gates();
            for (int i = 0;
                 i < trace_head && i < static_cast<int>(gates.size());
                 ++i) {
                const TimedGate &g = gates[static_cast<size_t>(i)];
                std::printf("  t=%-6lld %-8s",
                            static_cast<long long>(g.start),
                            std::string(gateName(g.kind)).c_str());
                for (int k = 0; k < g.arity; ++k)
                    std::printf(" q%d", g.sites[static_cast<size_t>(k)]);
                std::printf("\n");
            }
        }
        if (print_curve) {
            std::printf("\nqubit-usage curve (time live):\n");
            for (const UsagePoint &p : r.usageCurve) {
                std::printf("  %lld %d\n",
                            static_cast<long long>(p.time), p.live);
            }
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
