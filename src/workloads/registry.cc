#include "workloads/registry.h"

#include "common/logging.h"
#include "workloads/arith.h"
#include "workloads/boolean.h"
#include "workloads/salsa20.h"
#include "workloads/sha2.h"
#include "workloads/synthetic.h"

namespace square {

const std::vector<BenchmarkInfo> &
benchmarkRegistry()
{
    static const std::vector<BenchmarkInfo> registry = {
        // ---- NISQ-scale (Sec. V-C, Table III, Fig. 8) ----------------
        {"RD53", "input weight function, 5 inputs / 3 outputs", true, 16,
         [] { return makeRd53(); }},
        {"6SYM", "symmetric function of 6 inputs, 1 output", true, 16,
         [] { return makeSym6(); }},
        {"2OF5", "1 iff exactly two of five inputs set", true, 16,
         [] { return makeTwoOf5(); }},
        {"ADDER4", "4-bit controlled addition (Cuccaro)", true, 16,
         [] { return makeAdder(4); }},
        {"Jasmine-s", "small shallowly-nested synthetic", true, 16,
         [] { return makeSynthetic("jasmine_s", jasmineSmallParams()); }},
        {"Elsa-s", "small heavy shallowly-nested synthetic", true, 16,
         [] { return makeSynthetic("elsa_s", elsaSmallParams()); }},
        {"Belle-s", "small light deeply-nested synthetic", true, 16,
         [] { return makeSynthetic("belle_s", belleSmallParams()); }},

        // ---- Boundary / FT scale (Sec. V-D/V-E, Fig. 9/10) ----------
        {"ADDER32", "32-bit controlled addition", false, 16,
         [] { return makeAdder(32); }},
        {"ADDER64", "64-bit controlled addition", false, 20,
         [] { return makeAdder(64); }},
        {"MUL32", "32-bit out-of-place controlled multiplier", false, 32,
         [] { return makeMultiplier(32); }},
        {"MUL64", "64-bit out-of-place controlled multiplier", false, 64,
         [] { return makeMultiplier(64); }},
        {"MODEXP", "modular-exponentiation subroutine of Shor", false, 24,
         [] { return makeModexp(8, 6, 7); }},
        {"SHA2", "SHA-2 compression rounds", false, 32,
         [] { return makeSha2(); }},
        {"SALSA20", "Salsa20 stream-cipher core", false, 20,
         [] { return makeSalsa20(); }},
        {"Jasmine", "shallowly nested synthetic", false, 16,
         [] { return makeSynthetic("jasmine", jasmineParams()); }},
        {"Elsa", "heavy shallowly-nested synthetic", false, 16,
         [] { return makeSynthetic("elsa", elsaParams()); }},
        {"Belle", "light deeply-nested synthetic", false, 24,
         [] { return makeSynthetic("belle", belleParams()); }},
    };
    return registry;
}

const BenchmarkInfo &
findBenchmark(const std::string &name)
{
    for (const BenchmarkInfo &b : benchmarkRegistry()) {
        if (b.name == name)
            return b;
    }
    fatal("unknown benchmark: ", name);
}

Program
makeBenchmark(const std::string &name)
{
    return findBenchmark(name).build();
}

} // namespace square
