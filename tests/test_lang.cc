/**
 * @file
 * Unit tests for the mini-Scaffold lexer, parser, and printer
 * round-trip.
 */

#include <gtest/gtest.h>

#include "common/logging.h"

#include "ir/printer.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "sim/reference.h"
#include "workloads/arith.h"
#include "workloads/boolean.h"

namespace square {
namespace {

TEST(Lexer, TokenKinds)
{
    auto toks = lex("module f(a, b) { X(a); } // end");
    ASSERT_GE(toks.size(), 12u);
    EXPECT_EQ(toks[0].kind, TokKind::Ident);
    EXPECT_EQ(toks[0].text, "module");
    EXPECT_EQ(toks[2].kind, TokKind::LParen);
    EXPECT_EQ(toks.back().kind, TokKind::End);
}

TEST(Lexer, CommentsAndNumbers)
{
    auto toks = lex("/* block\ncomment */ anc[42] // eol");
    ASSERT_EQ(toks.size(), 5u); // anc [ 42 ] eof
    EXPECT_EQ(toks[2].kind, TokKind::Int);
    EXPECT_EQ(toks[2].value, 42);
}

TEST(Lexer, ErrorsOnStrayChar)
{
    EXPECT_THROW(lex("module f @"), FatalError);
    EXPECT_THROW(lex("/* unterminated"), FatalError);
}

TEST(Lexer, IntegerLiteralsFitInt64)
{
    auto toks = lex("anc[9223372036854775807]");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[2].value, INT64_MAX);
    EXPECT_EQ(lex("anc[007]")[2].value, 7);
    try {
        lex("\nanc[9223372036854775808]");
        ADD_FAILURE() << "overflow accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "integer literal overflow at line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Parser, Fig6Example)
{
    // The paper's Fig. 6 construct in mini-Scaffold syntax.
    const char *src = R"(
        module fun1(in0, in1, in2, out) ancilla 1 {
          Compute {
            Toffoli(in0, in1, in2);
            CNOT(in2, anc[0]);
            Toffoli(in1, in0, anc[0]);
          }
          Store {
            CNOT(anc[0], out);
          }
          Uncompute auto;
        }
        module main(q0, q1, q2, q3) {
          Store {
            call fun1(q0, q1, q2, q3);
          }
        }
        entry main;
    )";
    Program prog = parseProgram(src);
    EXPECT_EQ(prog.modules.size(), 2u);
    EXPECT_EQ(prog.entryModule().name, "main");
    const Module &fun1 = prog.module(prog.findModule("fun1"));
    EXPECT_EQ(fun1.numParams, 4);
    EXPECT_EQ(fun1.numAncilla, 1);
    EXPECT_EQ(fun1.compute.size(), 3u);
    EXPECT_EQ(fun1.store.size(), 1u);
    EXPECT_FALSE(fun1.hasExplicitUncompute());
}

TEST(Parser, ExplicitUncomputeBlock)
{
    const char *src = R"(
        module m(a) ancilla 1 {
          Compute { CNOT(a, anc[0]); }
          Store { CNOT(anc[0], a); }
          Uncompute { CNOT(a, anc[0]); }
        }
        entry m;
    )";
    Program prog = parseProgram(src);
    EXPECT_TRUE(prog.entryModule().hasExplicitUncompute());
}

TEST(Parser, BareStatementsGoToCompute)
{
    Program prog = parseProgram("module m(a, b) { CNOT(a, b); }");
    EXPECT_EQ(prog.entryModule().compute.size(), 1u);
}

TEST(Parser, ForwardReferences)
{
    const char *src = R"(
        module main(a, b) { Store { call helper(a, b); } }
        module helper(x, y) { Store { CNOT(x, y); } }
        entry main;
    )";
    Program prog = parseProgram(src);
    EXPECT_EQ(simulateReferenceBits(prog, 0b01), 0b11u);
}

TEST(Parser, DefaultEntryIsMainThenLast)
{
    Program p1 = parseProgram(
        "module foo(a) { X(a); } module main(a) { X(a); }");
    EXPECT_EQ(p1.entryModule().name, "main");
    Program p2 =
        parseProgram("module foo(a) { X(a); } module bar(a) { X(a); }");
    EXPECT_EQ(p2.entryModule().name, "bar");
}

TEST(Parser, Diagnostics)
{
    EXPECT_THROW(parseProgram("module m(a) { BOGUS(a); }"), FatalError);
    EXPECT_THROW(parseProgram("module m(a) { X(zzz); }"), FatalError);
    EXPECT_THROW(parseProgram("module m(a) { call nothere(a); }"),
                 FatalError);
    EXPECT_THROW(parseProgram("module m(a) ancilla 1 { X(anc[3]); }"),
                 FatalError);
    EXPECT_THROW(parseProgram("module m(a, a) { X(a); }"), FatalError);
    EXPECT_THROW(parseProgram(""), FatalError);
    EXPECT_THROW(parseProgram("module m(a) { X(a); } entry gone;"),
                 FatalError);
}

/** Round-trip: print then re-parse and compare structurally. */
void
expectRoundTrip(const Program &prog)
{
    std::string text = printProgram(prog);
    Program back = parseProgram(text);
    ASSERT_EQ(back.modules.size(), prog.modules.size()) << text;
    for (size_t i = 0; i < prog.modules.size(); ++i) {
        const Module &a = prog.modules[i];
        const Module &b = back.modules[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.numParams, b.numParams);
        EXPECT_EQ(a.numAncilla, b.numAncilla);
        EXPECT_EQ(a.compute.size(), b.compute.size());
        EXPECT_EQ(a.store.size(), b.store.size());
        EXPECT_EQ(a.uncompute.size(), b.uncompute.size());
    }
    EXPECT_EQ(prog.entryModule().name, back.entryModule().name);
    // Behavioral equality on a couple of inputs.
    if (prog.numPrimary() <= 24) {
        for (uint64_t in : {uint64_t{0}, uint64_t{0b1011}}) {
            EXPECT_EQ(simulateReferenceBits(prog, in),
                      simulateReferenceBits(back, in));
        }
    }
}

TEST(RoundTrip, Adder)
{
    expectRoundTrip(makeAdder(4));
}

TEST(RoundTrip, Rd53)
{
    expectRoundTrip(makeRd53());
}

TEST(RoundTrip, Multiplier)
{
    expectRoundTrip(makeMultiplier(3));
}

} // namespace
} // namespace square
