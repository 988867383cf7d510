//===- bench/bench_lang.cpp - Interpreted-language parity gate ------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The grs language's CI gate. Four sections:
//
//  1. PORT PARITY — every `.grs` corpus port under testdata/lang/ is
//     swept and its §3.3.1 fingerprint set compared against (a) the
//     pinned expectation in lang::langPorts() and (b) a sweep of its
//     hand-written C++ twin under identical seeds. Always-ports must
//     flag on every seed; race-free ports must sweep clean.
//  2. EXECUTOR PARITY — serial pipeline::sweep vs the in-process
//     parallel executor (sweep::resilient, one attempt per seed) at 1, 2
//     and 8 threads must agree bit-for-bit per port, nothing quarantined.
//  3. DIFFERENTIAL — >= 500 generated programs with known ground truth;
//     any miss, false positive, parse failure, panic, deadlock, or leak
//     fails the gate.
//  4. OVERHEAD — interpreted vs compiled wall-clock for the same
//     pattern, reported for EXPERIMENTS.md (not gated).
//
// Exit nonzero on any violation, so CI needs no JSON parsing.
// Results are emitted as one JSON object on stdout; progress to stderr.
//
// Usage: bench_lang [--smoke] [--out FILE]
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "lang/Generator.h"
#include "lang/Interp.h"
#include "lang/Ports.h"
#include "pipeline/Sweep.h"
#include "sweep/Resilient.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

using namespace grs;

namespace {

struct BenchConfig {
  uint64_t ParitySeeds = 200;
  unsigned DiffPrograms = 1000;
  unsigned DiffSweepSeeds = 8;
};

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// pipeline::sweep over an Execute function instead of a plain body
/// (the corpus twins are registered as runners).
pipeline::SweepResult
sweepRunner(const pipeline::SweepOptions &Opts,
            const std::function<rt::RunResult(const rt::RunOptions &)> &Run) {
  pipeline::SweepResult Result;
  for (uint64_t I = 0; I < Opts.NumSeeds; ++I) {
    rt::RunOptions RunOpts = Opts.Run;
    RunOpts.Seed = Opts.FirstSeed + I;
    RunOpts.OnReport = [&Result](const race::Detector &D,
                                 const race::RaceReport &Report) {
      uint64_t Fp = pipeline::raceFingerprint(D.interner(), Report);
      auto &Finding = Result.Findings[Fp];
      ++Finding.Occurrences;
      if (Finding.SampleReport.empty())
        Finding.SampleReport = race::reportToString(D.interner(), Report);
    };
    rt::RunResult R = Run(RunOpts);
    ++Result.SeedsRun;
    Result.SeedsWithRaces += R.RaceCount > 0;
    Result.SeedsWithLeaks += !R.LeakedGoroutines.empty();
    Result.SeedsWithPanics += !R.Panics.empty();
    Result.SeedsDeadlocked += R.Deadlocked;
    Result.TotalReports += R.RaceCount;
  }
  return Result;
}

std::set<uint64_t> fpSet(const pipeline::SweepResult &R) {
  std::set<uint64_t> S;
  for (const auto &[Fp, F] : R.Findings)
    S.insert(Fp);
  return S;
}

std::string fpList(const std::set<uint64_t> &S) {
  std::string Out;
  for (uint64_t Fp : S) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                  static_cast<unsigned long long>(Fp));
    if (!Out.empty())
      Out += " ";
    Out += Buf;
  }
  return Out.empty() ? "(none)" : Out;
}

struct PortRow {
  std::string Id;
  std::set<uint64_t> Fps;
  double DetectionRate = 0.0;
  bool PinParity = true;  ///< Fps == registry expectation.
  bool TwinParity = true; ///< Fps == C++ twin's fps (when twin exists).
  bool ExecParity = true; ///< serial == parallel{1,2,8}.
  bool Clean = true;      ///< Race-free ports only.
};

void emitJson(FILE *Out, const BenchConfig &Cfg,
              const std::vector<PortRow> &Rows,
              const lang::DifferentialOutcome &Diff, double CompiledMs,
              double InterpretedMs) {
  std::fprintf(Out, "{\n  \"parity_seeds\": %llu,\n  \"ports\": [\n",
               static_cast<unsigned long long>(Cfg.ParitySeeds));
  for (size_t I = 0; I < Rows.size(); ++I) {
    const PortRow &R = Rows[I];
    std::fprintf(Out,
                 "    {\"id\": \"%s\", \"fps\": \"%s\", "
                 "\"detection_rate\": %.3f, \"pin_parity\": %s, "
                 "\"twin_parity\": %s, \"exec_parity\": %s}%s\n",
                 R.Id.c_str(), fpList(R.Fps).c_str(), R.DetectionRate,
                 R.PinParity ? "true" : "false",
                 R.TwinParity ? "true" : "false",
                 R.ExecParity ? "true" : "false",
                 I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(Out,
               "  ],\n  \"differential\": {\"programs\": %u, \"racy\": %u, "
               "\"benign\": %u, \"sweep_seeds\": %u, \"parse_failures\": %u, "
               "\"misses\": %u, \"false_positives\": %u, \"panics\": %u, "
               "\"deadlocks\": %u, \"leaks\": %u},\n",
               Diff.Programs, Diff.RacyPrograms, Diff.BenignPrograms,
               Cfg.DiffSweepSeeds, Diff.ParseFailures, Diff.Misses,
               Diff.FalsePositives, Diff.Panics, Diff.Deadlocks, Diff.Leaks);
  double Ratio = CompiledMs > 0.0 ? InterpretedMs / CompiledMs : 0.0;
  std::fprintf(Out,
               "  \"overhead\": {\"compiled_ms\": %.1f, "
               "\"interpreted_ms\": %.1f, \"ratio\": %.2f}\n}\n",
               CompiledMs, InterpretedMs, Ratio);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Cfg;
  const char *OutPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--smoke")) {
      Cfg.ParitySeeds = 64;
      Cfg.DiffPrograms = 500; // the acceptance floor
    } else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: bench_lang [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  int Status = 0;
  std::vector<PortRow> Rows;

  //===--------------------------------------------------------------------===//
  // 1 + 2. Port parity and executor parity, per port.
  //===--------------------------------------------------------------------===//
  for (const lang::LangPort &Port : lang::langPorts()) {
    PortRow Row;
    Row.Id = Port.Id;

    std::string Path = lang::findTestdataPath(Port.File);
    if (Path.empty()) {
      std::fprintf(stderr, "MISSING: %s (%s not reachable)\n",
                   Port.Id.c_str(), Port.File.c_str());
      Status = 1;
      Rows.push_back(Row);
      continue;
    }
    std::string Error;
    lang::ParseResult Parsed = lang::loadProgramFile(Path, &Error);
    if (!Parsed.ok()) {
      std::fprintf(stderr, "PARSE FAILURE: %s\n%s", Port.Id.c_str(),
                   Error.c_str());
      Status = 1;
      Rows.push_back(Row);
      continue;
    }
    std::shared_ptr<const lang::Program> Prog = Parsed.Prog;

    pipeline::SweepOptions Opts;
    Opts.NumSeeds = Cfg.ParitySeeds;
    pipeline::SweepResult Serial = pipeline::sweep(Opts, lang::body(Prog));
    Row.Fps = fpSet(Serial);
    Row.DetectionRate = Serial.detectionRate();

    if (Port.RaceFree) {
      Row.Clean = Serial.clean();
      if (!Row.Clean) {
        std::fprintf(stderr, "NOT CLEAN: %s flagged %s\n", Port.Id.c_str(),
                     fpList(Row.Fps).c_str());
        Status = 1;
      }
    } else {
      std::set<uint64_t> Expected(Port.ExpectedFps.begin(),
                                  Port.ExpectedFps.end());
      Row.PinParity = Row.Fps == Expected;
      if (!Row.PinParity) {
        std::fprintf(stderr, "PIN MISMATCH: %s expected %s got %s\n",
                     Port.Id.c_str(), fpList(Expected).c_str(),
                     fpList(Row.Fps).c_str());
        Status = 1;
      }
      if (Port.Always && Serial.SeedsWithRaces != Serial.SeedsRun) {
        std::fprintf(stderr, "ALWAYS VIOLATION: %s flagged %llu/%llu seeds\n",
                     Port.Id.c_str(),
                     static_cast<unsigned long long>(Serial.SeedsWithRaces),
                     static_cast<unsigned long long>(Serial.SeedsRun));
        Status = 1;
      }
      if (Serial.SeedsWithRaces == 0) {
        std::fprintf(stderr, "NO DETECTION: %s never flagged\n",
                     Port.Id.c_str());
        Status = 1;
      }
    }

    if (!Port.TwinId.empty()) {
      const corpus::Pattern *Twin = corpus::findPattern(Port.TwinId);
      if (!Twin || !Twin->RunRacy) {
        std::fprintf(stderr, "NO TWIN: %s (%s)\n", Port.Id.c_str(),
                     Port.TwinId.c_str());
        Status = 1;
      } else {
        pipeline::SweepResult TwinSweep = sweepRunner(Opts, Twin->RunRacy);
        Row.TwinParity = fpSet(TwinSweep) == Row.Fps;
        if (!Row.TwinParity) {
          std::fprintf(stderr, "TWIN MISMATCH: %s twin %s port %s\n",
                       Port.Id.c_str(), fpList(fpSet(TwinSweep)).c_str(),
                       fpList(Row.Fps).c_str());
          Status = 1;
        }
      }
    }

    for (unsigned Threads : {1u, 2u, 8u}) {
      sweep::ResilientOptions POpts;
      POpts.NumSeeds = Cfg.ParitySeeds;
      POpts.Threads = Threads;
      POpts.MaxAttempts = 1;
      POpts.Body = lang::runner(Prog);
      sweep::ResilientResult Par = sweep::resilient(POpts);
      if (!(Par.Sweep == Serial) || !Par.Quarantined.empty()) {
        Row.ExecParity = false;
        std::fprintf(stderr, "EXECUTOR MISMATCH: %s at %u threads\n",
                     Port.Id.c_str(), Threads);
        Status = 1;
      }
    }

    std::fprintf(stderr, "port %-24s rate %.3f fps %s\n", Port.Id.c_str(),
                 Row.DetectionRate, fpList(Row.Fps).c_str());
    Rows.push_back(Row);
  }

  //===--------------------------------------------------------------------===//
  // 3. Differential testing against generated ground truth.
  //===--------------------------------------------------------------------===//
  lang::DifferentialOptions DiffOpts;
  DiffOpts.NumPrograms = Cfg.DiffPrograms;
  DiffOpts.SweepSeeds = Cfg.DiffSweepSeeds;
  lang::DifferentialOutcome Diff = lang::differentialSweep(DiffOpts);
  if (!Diff.ok()) {
    std::fprintf(stderr,
                 "DIFFERENTIAL VIOLATION: %u misses, %u false positives, "
                 "%u parse failures, %u panics, %u deadlocks, %u leaks\n",
                 Diff.Misses, Diff.FalsePositives, Diff.ParseFailures,
                 Diff.Panics, Diff.Deadlocks, Diff.Leaks);
    for (uint64_t S : Diff.MissSeeds)
      std::fprintf(stderr, "  miss: program %llu\n",
                   static_cast<unsigned long long>(S));
    for (uint64_t S : Diff.FalsePositiveSeeds)
      std::fprintf(stderr, "  false positive: program %llu\n",
                   static_cast<unsigned long long>(S));
    Status = 1;
  }
  std::fprintf(stderr, "differential: %u programs (%u racy, %u benign), %s\n",
               Diff.Programs, Diff.RacyPrograms, Diff.BenignPrograms,
               Diff.ok() ? "ok" : "VIOLATED");

  //===--------------------------------------------------------------------===//
  // 4. Interpreted-vs-compiled overhead on the same pattern.
  //===--------------------------------------------------------------------===//
  double CompiledMs = 0.0, InterpretedMs = 0.0;
  {
    const lang::LangPort *Port = lang::findLangPort("loop-index-capture");
    const corpus::Pattern *Twin = corpus::findPattern("loop-index-capture");
    std::string Path = Port ? lang::findTestdataPath(Port->File) : "";
    if (Twin && Twin->RunRacy && !Path.empty()) {
      lang::ParseResult Parsed = lang::loadProgramFile(Path);
      pipeline::SweepOptions Opts;
      Opts.NumSeeds = Cfg.ParitySeeds;
      auto StartC = std::chrono::steady_clock::now();
      sweepRunner(Opts, Twin->RunRacy);
      CompiledMs = elapsedMs(StartC);
      auto StartI = std::chrono::steady_clock::now();
      pipeline::sweep(Opts, lang::body(Parsed.Prog));
      InterpretedMs = elapsedMs(StartI);
      std::fprintf(stderr, "overhead: compiled %.1fms interpreted %.1fms "
                           "(%.2fx)\n",
                   CompiledMs, InterpretedMs,
                   CompiledMs > 0 ? InterpretedMs / CompiledMs : 0.0);
    }
  }

  emitJson(stdout, Cfg, Rows, Diff, CompiledMs, InterpretedMs);
  if (OutPath) {
    if (FILE *F = std::fopen(OutPath, "w")) {
      emitJson(F, Cfg, Rows, Diff, CompiledMs, InterpretedMs);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "bench_lang: cannot write %s\n", OutPath);
      return 2;
    }
  }
  return Status;
}
