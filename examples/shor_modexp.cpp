/**
 * @file
 * Shor's-algorithm workload study: the modular-exponentiation
 * subroutine under varying machine sizes.
 *
 * Modular exponentiation is the resource bottleneck of Shor's factoring
 * algorithm (Sec. II-B1 of the paper); this example sweeps machine
 * sizes to show how each reclamation policy behaves as the machine
 * shrinks: Lazy stops fitting first, Eager always fits but pays
 * recomputation, and SQUARE adapts - reclaiming more aggressively under
 * pressure.
 *
 * Run: ./build/example_shor_modexp [width_bits] [exponent_bits]
 * (width 1-31, default 8; exponent bits 1-64, default 6).  A bad
 * argument exits 1 with a message naming it.
 */

#include <cstdint>
#include <cstdio>

#include "arch/machine.h"
#include "common/flags.h"
#include "common/logging.h"
#include "core/compiler.h"
#include "workloads/arith.h"

using namespace square;

namespace {

/**
 * Read positional argument @p i, when given, into @p out; false after
 * printing why when it is not an integer in [@p min, @p max].
 */
bool
intArg(int argc, char **argv, int i, const char *what, int min, int max,
       int &out)
{
    int64_t value = 0;
    if (argc <= i)
        return true;
    if (parseInt(argv[i], min, max, value)) {
        out = static_cast<int>(value);
        return true;
    }
    std::fprintf(stderr, "shor_modexp: bad %s '%s' (an integer in [%d, %d])\n",
                 what, argv[i], min, max);
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    // makeModexp asserts a width of 1-31 bits: squaring a constant
    // below 2^31 stays inside 64 bits.
    int n = 8;
    int ebits = 6;
    if (!intArg(argc, argv, 1, "width_bits", 1, 31, n) ||
        !intArg(argc, argv, 2, "exponent_bits", 1, 64, ebits))
        return 1;
    Program prog = makeModexp(n, ebits, /*g=*/7);

    std::printf("MODEXP: %d-bit registers, %d exponent bits, "
                "%d primary qubits\n\n",
                n, ebits, prog.numPrimary());

    std::printf("%-8s | %-18s %8s %8s %8s %10s %9s\n", "machine",
                "policy", "gates", "swaps", "peak", "AQV", "reclaims");
    for (int edge : {24, 16, 12, 10, 9}) {
        for (const SquareConfig &cfg :
             {SquareConfig::lazy(), SquareConfig::eager(),
              SquareConfig::square()}) {
            std::printf("%2dx%-5d | %-18s ", edge, edge,
                        cfg.name.c_str());
            try {
                Machine m = Machine::nisqLattice(edge, edge);
                CompileResult r = compile(prog, m, cfg, {});
                std::printf("%8lld %8lld %8d %10lld %9d\n",
                            static_cast<long long>(r.gates),
                            static_cast<long long>(r.swaps), r.peakLive,
                            static_cast<long long>(r.aqv),
                            r.reclaimCount);
            } catch (const FatalError &e) {
                std::printf("DOES NOT FIT (%s...)\n",
                            std::string(e.what()).substr(0, 24).c_str());
            }
        }
        std::printf("\n");
    }

    std::printf("Note how SQUARE's reclaim count rises as the machine "
                "shrinks (qubit pressure),\nwhile Lazy eventually "
                "fails to fit at all - the Fig. 1 story.\n");
    return 0;
}
