//===- tests/MultiInstanceTest.cpp - Runtime/Detector instance isolation --===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The parallel sweep executor (sweep::resilient with Threads > 1) hosts
// one Runtime + Detector per OS thread concurrently. That is only sound if those
// components keep no shared mutable state: the runtime's only globals are
// thread_local (the ActiveRuntime pointer and the run arena), and the
// detector is fully instance-owned. These tests are the regression net
// for that audit — concurrent runs must be bit-identical to the same runs
// done serially.
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "lang/Interp.h"
#include "lang/Ports.h"
#include "obs/Export.h"
#include "obs/Metrics.h"
#include "pipeline/Fingerprint.h"
#include "pipeline/Sweep.h"
#include "rt/Channel.h"
#include "rt/Instr.h"
#include "rt/Sync.h"
#include "sweep/Resilient.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace grs;

namespace {

/// Everything observable about one pattern run, for serial-vs-concurrent
/// comparison.
struct RunSnapshot {
  size_t RaceCount = 0;
  uint64_t Steps = 0;
  size_t Leaks = 0;
  size_t Panics = 0;
  std::vector<uint64_t> Fingerprints;

  friend bool operator==(const RunSnapshot &X, const RunSnapshot &Y) {
    return X.RaceCount == Y.RaceCount && X.Steps == Y.Steps &&
           X.Leaks == Y.Leaks && X.Panics == Y.Panics &&
           X.Fingerprints == Y.Fingerprints;
  }
};

RunSnapshot runOne(const corpus::Pattern &P, uint64_t Seed) {
  RunSnapshot Snap;
  rt::RunOptions Opts;
  Opts.Seed = Seed;
  Opts.OnReport = [&Snap](const race::Detector &D,
                          const race::RaceReport &Report) {
    Snap.Fingerprints.push_back(
        pipeline::raceFingerprint(D.interner(), Report));
  };
  rt::RunResult Result = P.RunRacy(Opts);
  Snap.RaceCount = Result.RaceCount;
  Snap.Steps = Result.Steps;
  Snap.Leaks = Result.LeakedGoroutines.size();
  Snap.Panics = Result.Panics.size();
  return Snap;
}

TEST(MultiInstance, ConcurrentRuntimesMatchSerialRuns) {
  // Work list: every corpus pattern under several seeds — the whole
  // primitive surface (channels, mutexes, waitgroups, atomics, maps).
  const std::vector<corpus::Pattern> &Patterns = corpus::allPatterns();
  constexpr uint64_t NumSeeds = 6;
  std::vector<std::pair<const corpus::Pattern *, uint64_t>> Work;
  for (const corpus::Pattern &P : Patterns)
    for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed)
      Work.push_back({&P, Seed});

  // Ground truth: serial execution.
  std::vector<RunSnapshot> Serial(Work.size());
  for (size_t I = 0; I < Work.size(); ++I)
    Serial[I] = runOne(*Work[I].first, Work[I].second);

  // Same work list, 8 runtimes live at once, dynamic work stealing so
  // item pairings across threads vary.
  std::vector<RunSnapshot> Concurrent(Work.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < 8; ++W)
    Pool.emplace_back([&] {
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= Work.size())
          return;
        Concurrent[I] = runOne(*Work[I].first, Work[I].second);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  for (size_t I = 0; I < Work.size(); ++I)
    EXPECT_EQ(Concurrent[I], Serial[I])
        << Work[I].first->Id << " seed " << Work[I].second;
}

TEST(MultiInstance, TwoRuntimesBackToBackOnOneThread) {
  // Sequential reuse of the same thread must not leak state between
  // instances either (ActiveRuntime is cleared at run() exit, and the
  // second Runtime gets the first one's detector reset). The variable
  // outlives main: w may run after main returned, and a variable on
  // main's finished stack would hand it whatever that stack holds then.
  auto Go = [] {
    RunSnapshot Snap;
    rt::RunOptions Opts;
    Opts.Seed = 3;
    rt::Runtime RT(Opts);
    rt::RunResult R = RT.run([] {
      auto X = std::make_shared<rt::Shared<int>>("x");
      rt::go("w", [X] { *X = 1; });
      *X = 2;
    });
    Snap.RaceCount = R.RaceCount;
    Snap.Steps = R.Steps;
    return Snap;
  };
  RunSnapshot First = Go();
  RunSnapshot Second = Go();
  EXPECT_EQ(First, Second);
}

//===----------------------------------------------------------------------===//
// The run arena: a warm thread runs exactly what a cold one does
//===----------------------------------------------------------------------===//

/// Everything one run shows: its RunResult and rendered reports and, with
/// \p WithMetrics, its own registry's export, which carries the
/// detector's stats and footprint and the runtime's counters.
std::string runView(const sweep::Runner &Run, uint64_t Seed,
                    bool WithMetrics) {
  std::string View;
  obs::Registry Reg(true);
  rt::RunOptions Opts = rt::withSeed(Seed);
  if (WithMetrics)
    Opts.Metrics = &Reg;
  Opts.OnReport = [&View](const race::Detector &D,
                          const race::RaceReport &Report) {
    View += race::reportToString(D.interner(), Report) + "\n";
  };
  rt::RunResult R = Run(Opts);
  View += "main " + std::to_string(R.MainFinished) + " deadlock " +
          std::to_string(R.Deadlocked) + " steplimit " +
          std::to_string(R.StepLimitHit) + " watchdog " +
          std::to_string(R.WatchdogFired) + R.WatchdogDetail + " steps " +
          std::to_string(R.Steps) + " races " + std::to_string(R.RaceCount);
  for (const auto *List : {&R.LeakedGoroutines, &R.Panics,
                           &R.ForeignExceptions})
    for (const std::string &Line : *List)
      View += "\n" + Line;
  if (WithMetrics)
    View += "\n" + obs::prometheusText(Reg);
  return View;
}

// Every corpus pattern, racy and fixed, and every .grs port: seed A, then
// seed B, then seed A again on one thread, whose arena the previous jobs
// warmed. Both A runs equal seed A on a fresh thread, with and without
// metrics.
TEST(RunArena, ReuseIsInvisibleOnEveryCorpusJob) {
  std::vector<std::pair<std::string, sweep::Runner>> Jobs;
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    Jobs.emplace_back(P.Id + "/racy", P.RunRacy);
    Jobs.emplace_back(P.Id + "/fixed", P.RunFixed);
  }
  for (const lang::LangPort &Port : lang::langPorts()) {
    std::string Error;
    lang::ParseResult Parsed =
        lang::loadProgramFile(lang::findTestdataPath(Port.File), &Error);
    ASSERT_TRUE(Parsed.ok()) << Port.File << ": " << Error;
    Jobs.emplace_back("port:" + Port.Id, lang::runner(Parsed.Prog));
  }
  const uint64_t A = 3, B = 4;
  for (bool WithMetrics : {false, true}) {
    for (const auto &[Name, Run] : Jobs) {
      std::string Cold;
      std::thread([&, &Run = Run] { Cold = runView(Run, A, WithMetrics); })
          .join();
      std::string First = runView(Run, A, WithMetrics);
      runView(Run, B, WithMetrics);
      std::string Again = runView(Run, A, WithMetrics);
      EXPECT_EQ(First, Cold) << Name << " metrics " << WithMetrics;
      EXPECT_EQ(Again, Cold) << Name << " metrics " << WithMetrics;
    }
  }
}

// The body swept below: a schedule-dependent race (checked flag vs use)
// plus enough synchronized traffic to exercise merging.
void sweptBody() {
  rt::Shared<int> Counter("counter");
  rt::Shared<int> Racy("racy");
  rt::Mutex Mu("mu");
  rt::WaitGroup Wg("wg");
  Wg.add(3);
  for (int I = 0; I < 2; ++I)
    rt::go("locked", [&] {
      for (int J = 0; J < 3; ++J) {
        rt::LockGuard<rt::Mutex> G(Mu);
        Counter = Counter + 1;
      }
      Wg.done();
    });
  rt::go("publisher", [&] {
    Racy = 7; // Published by the unlock below — but only on schedules
              // where main's acquire comes after it.
    rt::LockGuard<rt::Mutex> G(Mu);
    Wg.done();
  });
  {
    rt::LockGuard<rt::Mutex> G(Mu);
  }
  int Seen = Racy; // Racy iff main won the lock race above.
  (void)Seen;
  Wg.wait();
}

// A producer/consumer service: channel handoffs to three workers, locked
// counters, a WaitGroup join, and one unsynchronized write that races
// main's read.
void serviceBody() {
  rt::Shared<int> Counter("counter");
  rt::Shared<int> Racy("stats.last");
  rt::Mutex Mu("mu");
  rt::Chan<int> Work(4, "work");
  rt::WaitGroup Wg("wg");
  Wg.add(3);
  for (int W = 0; W < 3; ++W)
    rt::go("worker", [&] {
      for (;;) {
        auto [Item, Ok] = Work.recv();
        if (!Ok)
          break;
        for (int I = 0; I < 8; ++I) {
          rt::LockGuard<rt::Mutex> G(Mu);
          Counter = Counter + Item;
        }
        Racy = Item;
      }
      Wg.done();
    });
  for (int I = 1; I <= 24; ++I)
    Work.send(I);
  int Last = Racy;
  (void)Last;
  Work.close();
  Wg.wait();
}

/// \p Body over \p NumSeeds seeds on \p Threads workers, one attempt per
/// seed: the plain parallel sweep, with no retry to hide a fault.
sweep::ResilientResult sweepOnThreads(void (*Body)(), uint64_t NumSeeds,
                                      unsigned Threads) {
  sweep::ResilientOptions Opts;
  Opts.NumSeeds = NumSeeds;
  Opts.Threads = Threads;
  Opts.MaxAttempts = 1;
  Opts.Body = corpus::hostBody(Body);
  return sweep::resilient(Opts);
}

TEST(MultiInstance, ParallelSweepMatchesSerialSweep) {
  for (void (*Body)() : {sweptBody, serviceBody}) {
    pipeline::SweepOptions SerialOpts;
    SerialOpts.NumSeeds = 64;
    pipeline::SweepResult Serial = pipeline::sweep(SerialOpts, Body);

    // Counters and findings agree key by key, including the deterministic
    // sample choice (lowest reporting seed), so the parallel executor is
    // a drop-in.
    sweep::ResilientResult Parallel = sweepOnThreads(Body, 64, 4);
    EXPECT_TRUE(Parallel.Quarantined.empty());
    EXPECT_EQ(Parallel.Sweep, Serial);
    EXPECT_GT(Serial.SeedsWithRaces, 0u);
    // sweptBody is genuinely schedule-dependent — the sweep exists
    // because single runs miss races (§3.1).
    if (Body == sweptBody) {
      EXPECT_LT(Serial.SeedsWithRaces, Serial.SeedsRun);
    }
  }
}

TEST(MultiInstance, ParallelSweepThreadCountDoesNotChangeResults) {
  sweep::ResilientResult One = sweepOnThreads(sweptBody, 32, 1);
  sweep::ResilientResult Eight = sweepOnThreads(sweptBody, 32, 8);
  EXPECT_TRUE(One.Quarantined.empty());
  EXPECT_TRUE(Eight.Quarantined.empty());
  EXPECT_EQ(One.Sweep, Eight.Sweep);
}

} // namespace
