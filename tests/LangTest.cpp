//===- tests/LangTest.cpp - grs language tests ----------------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The interpreted-language contract, in four layers:
//
//  * lexer/parser goldens, with source locations in every diagnostic;
//  * interpreter semantics (self-checking programs that panic on wrong
//    answers, so a green run means values, channels, closures, defers,
//    and select all behaved);
//  * fingerprint parity: every `.grs` corpus port produces the same
//    §3.3.1 fingerprint set as its hand-written C++ twin under the same
//    seeds, bit-identical across serial and parallel executors;
//  * robustness: no truncation of a valid program crashes the frontend,
//    and runtime type errors surface as contained GoPanics, never as
//    C++ exceptions escaping the run.
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "lang/Generator.h"
#include "lang/Interp.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Ports.h"
#include "pipeline/Sweep.h"
#include "rt/Runtime.h"
#include "sweep/Resilient.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace grs;

namespace {

constexpr uint64_t ParitySeeds = 64;

lang::ParseResult parse(const std::string &Src) {
  return lang::parseProgram(Src, "test.grs");
}

/// Runs \p Src once under \p Seed and returns the result.
rt::RunResult runOnce(const std::string &Src, uint64_t Seed = 1) {
  lang::ParseResult R = parse(Src);
  EXPECT_TRUE(R.ok()) << "parse failed: "
                      << (R.Diags.empty()
                              ? std::string("?")
                              : lang::renderDiag("test.grs", R.Diags[0]));
  rt::RunOptions Opts;
  Opts.Seed = Seed;
  return lang::runner(R.Prog)(Opts);
}

std::set<uint64_t> fpSet(const pipeline::SweepResult &R) {
  std::set<uint64_t> S;
  for (const auto &[Fp, F] : R.Findings)
    S.insert(Fp);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LangLexer, GoldenTokenStream) {
  lang::LexResult R = lang::lex("x := 1\nch <- x");
  ASSERT_TRUE(R.Diags.empty());
  std::vector<lang::Tok> Kinds;
  for (const lang::Token &T : R.Tokens)
    Kinds.push_back(T.K);
  // Semicolons inserted after `1` (newline) and `x` (EOF).
  std::vector<lang::Tok> Expected = {
      lang::Tok::Ident, lang::Tok::Define, lang::Tok::Int,  lang::Tok::Semi,
      lang::Tok::Ident, lang::Tok::Arrow,  lang::Tok::Ident, lang::Tok::Semi,
      lang::Tok::Eof};
  EXPECT_EQ(Kinds, Expected);
  EXPECT_EQ(R.Tokens[0].Text, "x");
  EXPECT_EQ(R.Tokens[2].IntValue, 1);
}

TEST(LangLexer, SemicolonInsertionMatchesGo) {
  // `}` ends a statement; `{` and binary operators do not.
  lang::LexResult R = lang::lex("if x {\n\ty()\n}\nz = x +\n1\n");
  ASSERT_TRUE(R.Diags.empty());
  unsigned Semis = 0;
  for (const lang::Token &T : R.Tokens)
    Semis += T.K == lang::Tok::Semi;
  // After y(), after }, after 1 — but NOT after `+` or `{`.
  EXPECT_EQ(Semis, 3u);
}

TEST(LangLexer, DiagnosticsCarryLocation) {
  lang::LexResult R = lang::lex("ok := 1\nbad := \"unterminated\n");
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags[0].Line, 2u);
  EXPECT_GT(R.Diags[0].Col, 1u);
  std::string Rendered = lang::renderDiag("f.grs", R.Diags[0]);
  EXPECT_NE(Rendered.find("f.grs:2:"), std::string::npos) << Rendered;
}

TEST(LangLexer, UnknownCharacterRecovery) {
  lang::LexResult R = lang::lex("x := 1 @ 2\ny := 3");
  ASSERT_FALSE(R.Diags.empty());
  // Lexing continues past the bad character; the last real token is `3`.
  ASSERT_GE(R.Tokens.size(), 2u);
  EXPECT_EQ(R.Tokens[R.Tokens.size() - 1].K, lang::Tok::Eof);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(LangParser, GoldenDump) {
  lang::ParseResult R = parse("func main() {\n"
                              "\tx := 1\n"
                              "\tif x == 1 {\n"
                              "\t\tx = 2\n"
                              "\t} else {\n"
                              "\t\tx = 3\n"
                              "\t}\n"
                              "\tgo \"w\" f(x)\n"
                              "}\n"
                              "func f(a) {\n"
                              "\treturn a\n"
                              "}\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(lang::dumpProgram(*R.Prog),
            "(func main ()\n"
            "  (decl x (int 1))\n"
            "  (if (bin == (id x) (int 1)) (then (assign x (int 2))) "
            "(else (assign x (int 3))))\n"
            "  (go \"w\" (call (id f) (id x))))\n"
            "(func f (a)\n"
            "  (return (id a)))\n");
}

TEST(LangParser, GoldenSelectAndMake) {
  lang::ParseResult R = parse("func main() {\n"
                              "\tch := make(chan, 1)\n"
                              "\tselect {\n"
                              "\tcase v := <-ch:\n"
                              "\t\tv = v + 1\n"
                              "\tcase ch <- 9:\n"
                              "\tdefault:\n"
                              "\t}\n"
                              "}\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(lang::dumpProgram(*R.Prog),
            "(func main ()\n"
            "  (decl ch (make chan (int 1)))\n"
            "  (select (case-recv v (id ch) (assign v (bin + (id v) "
            "(int 1)))) (case-send (id ch) (int 9)) (case-default)))\n");
}

TEST(LangParser, DiagnosticsCarryLocation) {
  lang::ParseResult R = parse("func main() {\n\tx := := 2\n}\n");
  ASSERT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags[0].Line, 2u);
  std::string Rendered = lang::renderDiag(R.Prog->FileName, R.Diags[0]);
  EXPECT_NE(Rendered.find("test.grs:2:"), std::string::npos) << Rendered;
}

TEST(LangParser, RecoversAndReportsMultipleErrors) {
  lang::ParseResult R = parse("func main() {\n"
                              "\tx := := 1\n"
                              "\ty := 2\n"
                              "\tz = = 3\n"
                              "}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_GE(R.Diags.size(), 2u) << "statement-level recovery should find "
                                   "both bad statements";
}

TEST(LangParser, EveryTruncationOfAValidProgramIsHandled) {
  std::string Path = lang::findTestdataPath("lang/loop_index_capture.grs");
  ASSERT_FALSE(Path.empty());
  std::string Error;
  lang::ParseResult Full = lang::loadProgramFile(Path, &Error);
  ASSERT_TRUE(Full.ok()) << Error;

  std::string Src;
  {
    std::ifstream In(Path);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Src = Buf.str();
  }
  ASSERT_FALSE(Src.empty());

  for (size_t Len = 0; Len <= Src.size(); ++Len) {
    std::string Prefix = Src.substr(0, Len);
    lang::ParseResult R = lang::parseProgram(Prefix, "trunc.grs");
    // Must never crash; when the prefix happens to parse, it must also
    // RUN without escaping exceptions (panics/leaks are fine and land
    // in the RunResult).
    if (R.ok() && R.Prog->findFunc("main")) {
      rt::RunOptions Opts;
      Opts.Seed = 7;
      (void)lang::runner(R.Prog)(Opts);
    }
  }
}

//===----------------------------------------------------------------------===//
// Interpreter semantics (self-checking programs: wrong answers panic).
//===----------------------------------------------------------------------===//

TEST(LangInterp, ValuesOperatorsAndControlFlow) {
  rt::RunResult R = runOnce(
      "func main() {\n"
      "\tx := 2 + 3 * 4\n"
      "\tif x != 14 { panic(\"arith\") }\n"
      "\ts := \"a\" + \"b\"\n"
      "\tif s != \"ab\" { panic(\"concat\") }\n"
      "\tn := 0\n"
      "\tfor i := 0; i < 5; i = i + 1 { n = n + i }\n"
      "\tif n != 10 { panic(\"loop\") }\n"
      "\tok := true && !false || false\n"
      "\tif !ok { panic(\"bool\") }\n"
      "\tif 7 % 3 != 1 { panic(\"mod\") }\n"
      "}\n");
  EXPECT_TRUE(R.Panics.empty())
      << (R.Panics.empty() ? std::string() : R.Panics[0]);
  EXPECT_TRUE(R.MainFinished);
}

TEST(LangInterp, ClosuresCaptureByReference) {
  rt::RunResult R = runOnce(
      "func main() {\n"
      "\tn := 0\n"
      "\tinc := func() { n = n + 1 }\n"
      "\tinc()\n"
      "\tinc()\n"
      "\tif n != 2 { panic(\"capture\") }\n"
      "}\n");
  EXPECT_TRUE(R.Panics.empty());
  EXPECT_TRUE(R.MainFinished);
}

TEST(LangInterp, ChannelsSelectAndClose) {
  rt::RunResult R = runOnce(
      "func main() {\n"
      "\tch := make(chan, 2)\n"
      "\tch <- 1\n"
      "\tch <- 2\n"
      "\tif len(ch) != 2 { panic(\"len\") }\n"
      "\tif cap(ch) != 2 { panic(\"cap\") }\n"
      "\ta := <-ch\n"
      "\tb := <-ch\n"
      "\tif a + b != 3 { panic(\"fifo\") }\n"
      "\tgot := 0\n"
      "\tselect {\n"
      "\tcase v := <-ch:\n"
      "\t\tgot = v\n"
      "\tdefault:\n"
      "\t\tgot = 99\n"
      "\t}\n"
      "\tif got != 99 { panic(\"default arm\") }\n"
      "\tdone := make(chan)\n"
      "\tgo \"echo\" func() {\n"
      "\t\tv := <-ch\n"
      "\t\tdone <- v\n"
      "\t}()\n"
      "\tch <- 5\n"
      "\tif <-done != 5 { panic(\"rendezvous\") }\n"
      "\tclose(ch)\n"
      "}\n");
  EXPECT_TRUE(R.clean()) << "panics/leaks/deadlock in channel program";
  EXPECT_TRUE(R.MainFinished);
}

TEST(LangInterp, DeferRunsLifoAtFunctionExit) {
  rt::RunResult R = runOnce(
      "func f(trace) {\n"
      "\tdefer func() { trace[0] = trace[0] + \"a\" }()\n"
      "\tdefer func() { trace[0] = trace[0] + \"b\" }()\n"
      "\ttrace[0] = trace[0] + \"x\"\n"
      "}\n"
      "func main() {\n"
      "\tt := make(map)\n"
      "\tt[0] = \"\"\n"
      "\tf(t)\n"
      "\tif t[0] != \"xba\" { panic(t[0]) }\n"
      "}\n");
  EXPECT_TRUE(R.Panics.empty());
  EXPECT_TRUE(R.MainFinished);
}

TEST(LangInterp, MapsAndSlices) {
  rt::RunResult R = runOnce(
      "func main() {\n"
      "\tm := make(map)\n"
      "\tm[\"k\"] = 7\n"
      "\tif m[\"k\"] != 7 { panic(\"map get\") }\n"
      "\tif m[\"missing\"] != nil { panic(\"zero value\") }\n"
      "\tif !m.contains(\"k\") { panic(\"contains\") }\n"
      "\tdelete(m, \"k\")\n"
      "\tif len(m) != 0 { panic(\"delete\") }\n"
      "\ts := make(slice, 0)\n"
      "\ts = append(s, 10)\n"
      "\ts = append(s, 20)\n"
      "\tif len(s) != 2 { panic(\"append\") }\n"
      "\tif s[1] != 20 { panic(\"index\") }\n"
      "\ts[0] = 11\n"
      "\tif s[0] != 11 { panic(\"set\") }\n"
      "}\n");
  EXPECT_TRUE(R.Panics.empty());
  EXPECT_TRUE(R.MainFinished);
}

TEST(LangInterp, SyncPrimitives) {
  rt::RunResult R = runOnce(
      "func main() {\n"
      "\tmu := mutex(\"mu\")\n"
      "\twg := waitgroup(\"wg\")\n"
      "\tn := 0\n"
      "\twg.add(2)\n"
      "\tgo \"a\" func() {\n"
      "\t\tmu.lock()\n"
      "\t\tn = n + 1\n"
      "\t\tmu.unlock()\n"
      "\t\twg.done()\n"
      "\t}()\n"
      "\tgo \"b\" func() {\n"
      "\t\tmu.lock()\n"
      "\t\tn = n + 1\n"
      "\t\tmu.unlock()\n"
      "\t\twg.done()\n"
      "\t}()\n"
      "\twg.wait()\n"
      "\tif n != 2 { panic(\"guarded count\") }\n"
      "}\n");
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.RaceCount, 0u) << "fully guarded increments must not race";
}

TEST(LangInterp, RuntimeErrorsAreContainedGoPanics) {
  rt::RunResult Div = runOnce("func main() {\n\tx := 0\n\ty := 1 / x\n}\n");
  ASSERT_EQ(Div.Panics.size(), 1u);
  EXPECT_NE(Div.Panics[0].find("divide by zero"), std::string::npos);
  EXPECT_FALSE(Div.clean()) << "a panicked run is not clean";

  rt::RunResult Type = runOnce("func main() {\n\tx := 1 + true\n}\n");
  ASSERT_EQ(Type.Panics.size(), 1u);
  EXPECT_NE(Type.Panics[0].find("grs: test.grs:2:"), std::string::npos)
      << "type errors must carry file:line:col — got: " << Type.Panics[0];

  rt::RunResult Undef = runOnce("func main() {\n\tx := nope\n}\n");
  ASSERT_EQ(Undef.Panics.size(), 1u);
  EXPECT_NE(Undef.Panics[0].find("undefined"), std::string::npos);

  rt::RunResult Oob = runOnce(
      "func main() {\n\ts := make(slice, 1)\n\tv := s[5]\n}\n");
  ASSERT_EQ(Oob.Panics.size(), 1u);
  EXPECT_NE(Oob.Panics[0].find("index out of range"), std::string::npos);
}

TEST(LangInterp, SeedDeterminism) {
  std::string Path = lang::findTestdataPath("lang/partial_locking.grs");
  ASSERT_FALSE(Path.empty());
  lang::ParseResult R = lang::loadProgramFile(Path);
  ASSERT_TRUE(R.ok());
  auto Run = lang::runner(R.Prog);
  for (uint64_t Seed : {1ull, 9ull, 1234ull}) {
    rt::RunOptions Opts;
    Opts.Seed = Seed;
    rt::RunResult A = Run(Opts);
    rt::RunResult B = Run(Opts);
    EXPECT_EQ(A.Steps, B.Steps) << "seed " << Seed;
    EXPECT_EQ(A.RaceCount, B.RaceCount) << "seed " << Seed;
    EXPECT_EQ(A.MainFinished, B.MainFinished) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Fingerprint parity with the C++ twins.
//===----------------------------------------------------------------------===//

TEST(LangParity, EveryPortMatchesItsPinAndTwin) {
  for (const lang::LangPort &Port : lang::langPorts()) {
    SCOPED_TRACE(Port.Id);
    std::string Path = lang::findTestdataPath(Port.File);
    ASSERT_FALSE(Path.empty()) << Port.File;
    std::string Error;
    lang::ParseResult Parsed = lang::loadProgramFile(Path, &Error);
    ASSERT_TRUE(Parsed.ok()) << Error;

    pipeline::SweepOptions Opts;
    Opts.NumSeeds = ParitySeeds;
    pipeline::SweepResult Sweep =
        pipeline::sweep(Opts, lang::body(Parsed.Prog));

    if (Port.RaceFree) {
      EXPECT_TRUE(Sweep.clean());
      continue;
    }

    std::set<uint64_t> Expected(Port.ExpectedFps.begin(),
                                Port.ExpectedFps.end());
    EXPECT_EQ(fpSet(Sweep), Expected);
    EXPECT_GT(Sweep.SeedsWithRaces, 0u);
    if (Port.Always) {
      EXPECT_EQ(Sweep.SeedsWithRaces, Sweep.SeedsRun);
    }

    if (!Port.TwinId.empty()) {
      const corpus::Pattern *Twin = corpus::findPattern(Port.TwinId);
      ASSERT_NE(Twin, nullptr) << Port.TwinId;
      ASSERT_TRUE(Twin->RunRacy != nullptr);
      pipeline::SweepResult TwinSweep = pipeline::sweep(Opts, Twin->RunRacy);
      EXPECT_EQ(fpSet(TwinSweep), fpSet(Sweep))
          << "interpreted fingerprints must be bit-identical to the "
             "compiled twin's";
    }
  }
}

TEST(LangParity, PinnedCorpusFingerprintsAgree) {
  // The three ports whose twins are registered in corpus::scheduleDeps
  // carry fingerprints pinned BEFORE the language existed; the ports
  // must reproduce those historical pins exactly.
  struct Pin {
    const char *Id;
    uint64_t Fp;
  } Pins[] = {
      {"loop-index-capture", 0x860f1163c052aab8ULL},
      {"partial-locking", 0x7f6e138b8cec32c6ULL},
      {"waitgroup-add-inside", 0x3a8ea963e56e4adeULL},
  };
  for (const Pin &P : Pins) {
    const lang::LangPort *Port = lang::findLangPort(P.Id);
    ASSERT_NE(Port, nullptr) << P.Id;
    ASSERT_EQ(Port->ExpectedFps.size(), 1u);
    EXPECT_EQ(Port->ExpectedFps[0], P.Fp) << P.Id;
  }
}

TEST(LangParity, SerialAndParallelExecutorsAreBitIdentical) {
  for (const lang::LangPort &Port : lang::langPorts()) {
    SCOPED_TRACE(Port.Id);
    std::string Path = lang::findTestdataPath(Port.File);
    ASSERT_FALSE(Path.empty());
    lang::ParseResult Parsed = lang::loadProgramFile(Path);
    ASSERT_TRUE(Parsed.ok());

    pipeline::SweepOptions SOpts;
    SOpts.NumSeeds = ParitySeeds;
    pipeline::SweepResult Serial =
        pipeline::sweep(SOpts, lang::body(Parsed.Prog));
    for (unsigned Threads : {1u, 2u, 8u}) {
      sweep::ResilientOptions POpts =
          sweep::resilientFrom(SOpts, lang::runner(Parsed.Prog));
      POpts.Threads = Threads;
      POpts.MaxAttempts = 1;
      sweep::ResilientResult Par = sweep::resilient(POpts);
      EXPECT_TRUE(Par.Quarantined.empty()) << Threads << " threads";
      EXPECT_TRUE(Par.Sweep == Serial) << Threads << " threads";
    }
  }
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(LangGenerator, DeterministicAndWellFormed) {
  lang::GeneratedProgram A = lang::generateProgram(7);
  lang::GeneratedProgram B = lang::generateProgram(7);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Racy, B.Racy);
  unsigned Racy = 0, Benign = 0;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    lang::GeneratedProgram G = lang::generateProgram(Seed);
    ASSERT_TRUE(G.Parsed.ok()) << "program " << Seed << " must parse:\n"
                               << G.Source;
    (G.Racy ? Racy : Benign) += 1;
  }
  EXPECT_GT(Racy, 0u);
  EXPECT_GT(Benign, 0u);
}

TEST(LangGenerator, DifferentialGroundTruthHolds) {
  lang::DifferentialOptions Opts;
  Opts.NumPrograms = 500;
  Opts.SweepSeeds = 8;
  lang::DifferentialOutcome Out = lang::differentialSweep(Opts);
  EXPECT_EQ(Out.Programs, 500u);
  EXPECT_TRUE(Out.ok()) << Out.Misses << " misses, " << Out.FalsePositives
                        << " false positives, " << Out.ParseFailures
                        << " parse failures, " << Out.Panics << " panics, "
                        << Out.Deadlocks << " deadlocks, " << Out.Leaks
                        << " leaks";
  EXPECT_GT(Out.RacyPrograms, 0u);
  EXPECT_GT(Out.BenignPrograms, 0u);
}
