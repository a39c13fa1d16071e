/**
 * @file
 * Unit tests for the OpenQASM 2.0 exporter.
 */

#include <gtest/gtest.h>

#include "common/logging.h"

#include <sstream>

#include "arch/machine.h"
#include "core/compiler.h"
#include "qasm/export.h"
#include "workloads/arith.h"

namespace square {
namespace {

/** A compile's result and the schedule a VectorTrace recorded. */
struct Traced
{
    CompileResult r;
    VectorTrace schedule;

    std::string
    qasm(const QasmOptions &options = {}) const
    {
        return exportQasm(r, schedule.gates(), 16, options);
    }
};

Traced
compileTraced()
{
    Program prog = makeAdder(2);
    Machine m = Machine::fullyConnected(16);
    Traced out;
    CompileOptions opts;
    opts.extraSink = &out.schedule;
    out.r = compile(prog, m, SquareConfig::square(), opts);
    return out;
}

TEST(Qasm, HeaderAndRegisters)
{
    const Traced t = compileTraced();
    std::string qasm = t.qasm();
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("include \"qelib1.inc\";"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[16];"), std::string::npos);
    EXPECT_NE(qasm.find("creg c[5];"), std::string::npos); // 1+2+2 prim
}

TEST(Qasm, GateLineCountMatchesTrace)
{
    const Traced t = compileTraced();
    std::string qasm = t.qasm();
    std::istringstream in(qasm);
    std::string line;
    int64_t gate_lines = 0, measure_lines = 0;
    while (std::getline(in, line)) {
        if (line.rfind("measure", 0) == 0) {
            ++measure_lines;
        } else if (!line.empty() && line.rfind("//", 0) != 0 &&
                   line.find("q[") != std::string::npos &&
                   line.rfind("qreg", 0) != 0) {
            ++gate_lines;
        }
    }
    EXPECT_EQ(gate_lines, static_cast<int64_t>(t.schedule.gates().size()));
    EXPECT_EQ(measure_lines,
              static_cast<int64_t>(t.r.primaryFinalSites.size()));
}

TEST(Qasm, MacroToffoliUsesCcx)
{
    const Traced t = compileTraced();
    std::string qasm = t.qasm();
    // fullyConnected keeps Toffoli native -> ccx lines present.
    EXPECT_NE(qasm.find("ccx "), std::string::npos);
}

TEST(Qasm, TimingCommentsOptional)
{
    const Traced t = compileTraced();
    QasmOptions opts;
    opts.timingComments = true;
    std::string with = t.qasm(opts);
    EXPECT_NE(with.find("// t="), std::string::npos);
    std::string without = t.qasm();
    EXPECT_EQ(without.find("ccx q"), without.find("ccx q")); // smoke
    EXPECT_EQ(without.find(" // t="), std::string::npos);
}

TEST(Qasm, NoMeasureWhenDisabled)
{
    const Traced t = compileTraced();
    QasmOptions opts;
    opts.measurePrimaries = false;
    std::string qasm = t.qasm(opts);
    EXPECT_EQ(qasm.find("measure"), std::string::npos);
    EXPECT_EQ(qasm.find("creg"), std::string::npos);
}

TEST(Qasm, RequiresTrace)
{
    const Traced t = compileTraced();
    EXPECT_THROW(exportQasm(t.r, {}, 16), FatalError);
}

} // namespace
} // namespace square
