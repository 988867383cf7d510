//===- tests/FuzzTest.cpp - Randomized property tests ----------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Two fuzzers:
//
//  1. Detector-level: random well-formed event traces fed to detectors in
//     different configurations, checking representation-independence
//     (FastTrack epochs vs always-full vector clocks report the same racy
//     addresses) and lock-discipline soundness (fully lock-protected
//     traces are never flagged by either engine).
//
//  2. Runtime-level: random concurrent programs in safe (every shared
//     access under one mutex) and bugged (one access site skips the lock)
//     variants, swept across schedules: safe programs must be clean on
//     EVERY seed; bugged programs must be caught.
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "inject/Fault.h"
#include "lang/Generator.h"
#include "pipeline/Fingerprint.h"
#include "race/Detector.h"
#include "rt/Instr.h"
#include "rt/Runtime.h"
#include "rt/Sync.h"
#include "support/Rng.h"
#include "sweep/Adaptive.h"
#include "sweep/Pool.h"
#include "sweep/Resilient.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>

using namespace grs;
using namespace grs::race;

namespace {

//===----------------------------------------------------------------------===//
// Detector-level trace fuzzing
//===----------------------------------------------------------------------===//

/// One recorded event of a synthetic trace.
struct TraceEvent {
  enum Kind { Read, Write, Acquire, Release, Fork } K;
  Tid Thread;       // Acting thread (index into trace's thread list).
  uint32_t Object;  // Address index or lock index.
};

/// A random but well-formed trace: lock acquire/release properly nested
/// per thread, forks before use of the forked thread.
struct Trace {
  size_t NumThreads;
  size_t NumLocks;
  size_t NumAddrs;
  std::vector<TraceEvent> Events;
  /// When true, every access to address I was made under lock (I %
  /// NumLocks) — the lock-discipline-safe generator mode.
  bool LockDisciplined;
};

Trace makeTrace(uint64_t Seed, bool LockDisciplined) {
  support::Rng Rng(Seed);
  Trace T;
  T.NumThreads = 2 + Rng.nextBelow(3);
  T.NumLocks = 1 + Rng.nextBelow(3);
  T.NumAddrs = 1 + Rng.nextBelow(6);
  T.LockDisciplined = LockDisciplined;

  // Thread 0 exists; fork the rest up front (events interleaved later
  // would need happens-before bookkeeping in the generator).
  for (Tid Child = 1; Child < T.NumThreads; ++Child)
    T.Events.push_back({TraceEvent::Fork, 0, Child});

  // Per-thread held lock and global holder table: a feasible interleaving
  // never has two threads inside the same lock at once.
  std::vector<int> HeldLock(T.NumThreads, -1);
  std::vector<int> LockHolder(T.NumLocks, -1);
  auto DoRelease = [&](Tid Actor) {
    T.Events.push_back({TraceEvent::Release, Actor,
                        static_cast<uint32_t>(HeldLock[Actor])});
    LockHolder[static_cast<size_t>(HeldLock[Actor])] = -1;
    HeldLock[Actor] = -1;
  };
  size_t Steps = 40 + Rng.nextBelow(120);
  for (size_t I = 0; I < Steps; ++I) {
    Tid Actor = static_cast<Tid>(Rng.nextBelow(T.NumThreads));
    if (HeldLock[Actor] >= 0 && Rng.chance(0.35)) {
      DoRelease(Actor);
      continue;
    }
    uint32_t Addr = static_cast<uint32_t>(Rng.nextBelow(T.NumAddrs));
    uint32_t NeededLock = Addr % T.NumLocks;
    if (LockDisciplined) {
      if (HeldLock[Actor] != static_cast<int>(NeededLock)) {
        if (HeldLock[Actor] >= 0)
          DoRelease(Actor);
        if (LockHolder[NeededLock] >= 0)
          continue; // Lock busy: a real thread would block here.
        T.Events.push_back({TraceEvent::Acquire, Actor, NeededLock});
        LockHolder[NeededLock] = static_cast<int>(Actor);
        HeldLock[Actor] = static_cast<int>(NeededLock);
      }
    } else if (HeldLock[Actor] < 0 && Rng.chance(0.3)) {
      uint32_t L = static_cast<uint32_t>(Rng.nextBelow(T.NumLocks));
      if (LockHolder[L] < 0) {
        T.Events.push_back({TraceEvent::Acquire, Actor, L});
        LockHolder[L] = static_cast<int>(Actor);
        HeldLock[Actor] = static_cast<int>(L);
      }
    }
    T.Events.push_back({Rng.chance(0.5) ? TraceEvent::Read
                                        : TraceEvent::Write,
                        Actor, Addr});
  }
  for (Tid Actor = 0; Actor < T.NumThreads; ++Actor)
    if (HeldLock[Actor] >= 0)
      DoRelease(Actor);
  return T;
}

/// Replays \p T through a detector built with \p Opts; returns the set of
/// racy addresses.
std::set<Addr> replay(const Trace &T, DetectorOptions Opts) {
  Detector D(Opts);
  std::vector<Tid> Threads{D.newRootGoroutine()};
  std::vector<SyncId> Locks;
  for (size_t I = 0; I < T.NumLocks; ++I)
    Locks.push_back(D.newSyncVar("lock" + std::to_string(I)));

  constexpr Addr Base = 0x5000;
  for (const TraceEvent &E : T.Events) {
    switch (E.K) {
    case TraceEvent::Fork:
      Threads.push_back(D.fork(Threads[E.Thread]));
      break;
    case TraceEvent::Acquire:
      D.acquire(Threads[E.Thread], Locks[E.Object]);
      D.lockAcquired(Threads[E.Thread], Locks[E.Object], true);
      break;
    case TraceEvent::Release:
      D.release(Threads[E.Thread], Locks[E.Object]);
      D.lockReleased(Threads[E.Thread], Locks[E.Object], true);
      break;
    case TraceEvent::Read:
      D.onRead(Threads[E.Thread], Base + E.Object);
      break;
    case TraceEvent::Write:
      D.onWrite(Threads[E.Thread], Base + E.Object);
      break;
    }
  }
  std::set<Addr> Racy;
  for (const RaceReport &R : D.reports())
    Racy.insert(R.Address);
  return Racy;
}

class TraceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceFuzz, EpochAndFullVcModesAgreeOnRacyAddresses) {
  for (uint64_t Sub = 0; Sub < 20; ++Sub) {
    Trace T = makeTrace(GetParam() * 1000 + Sub, /*LockDisciplined=*/false);
    DetectorOptions Epochs;
    DetectorOptions FullVc;
    FullVc.EpochOptimization = false;
    EXPECT_EQ(replay(T, Epochs), replay(T, FullVc))
        << "trace seed " << GetParam() * 1000 + Sub;
  }
}

TEST_P(TraceFuzz, LockDisciplinedTracesAreCleanInBothEngines) {
  for (uint64_t Sub = 0; Sub < 20; ++Sub) {
    Trace T = makeTrace(GetParam() * 1000 + Sub, /*LockDisciplined=*/true);
    DetectorOptions Hb;
    EXPECT_TRUE(replay(T, Hb).empty())
        << "HB false positive, trace seed " << GetParam() * 1000 + Sub;
    DetectorOptions Ls;
    Ls.Mode = DetectMode::LockSetOnly;
    EXPECT_TRUE(replay(T, Ls).empty())
        << "Eraser false positive, trace seed " << GetParam() * 1000 + Sub;
  }
}

TEST_P(TraceFuzz, HybridReportsAtLeastHbAddresses) {
  for (uint64_t Sub = 0; Sub < 10; ++Sub) {
    Trace T = makeTrace(GetParam() * 977 + Sub, /*LockDisciplined=*/false);
    DetectorOptions Hb;
    DetectorOptions Hybrid;
    Hybrid.Mode = DetectMode::Hybrid;
    std::set<Addr> HbRacy = replay(T, Hb);
    std::set<Addr> HybridRacy = replay(T, Hybrid);
    for (Addr A : HbRacy)
      EXPECT_TRUE(HybridRacy.count(A))
          << "hybrid missed an HB race, trace seed "
          << GetParam() * 977 + Sub;
  }
}

/// Full-verdict replay for the GC differential: every report's
/// fingerprint plus the suppression counters, with optional forced
/// collections injected every \p GcEvery events — on top of whatever
/// periodic schedule Opts.GcIntervalEvents drives. Random traces hit
/// dominated-state shapes (lock handoffs, post-fork writes) that the
/// corpus does not.
struct ReplayVerdict {
  std::vector<uint64_t> Fingerprints;
  uint64_t Reported = 0;
  uint64_t Suppressed = 0;

  bool operator==(const ReplayVerdict &) const = default;
};

ReplayVerdict replayFull(const Trace &T, DetectorOptions Opts,
                         size_t GcEvery = 0) {
  Detector D(Opts);
  std::vector<Tid> Threads{D.newRootGoroutine()};
  std::vector<SyncId> Locks;
  for (size_t I = 0; I < T.NumLocks; ++I)
    Locks.push_back(D.newSyncVar("lock" + std::to_string(I)));

  constexpr Addr Base = 0x5000;
  size_t Applied = 0;
  for (const TraceEvent &E : T.Events) {
    switch (E.K) {
    case TraceEvent::Fork:
      Threads.push_back(D.fork(Threads[E.Thread]));
      break;
    case TraceEvent::Acquire:
      D.acquire(Threads[E.Thread], Locks[E.Object]);
      D.lockAcquired(Threads[E.Thread], Locks[E.Object], true);
      break;
    case TraceEvent::Release:
      D.release(Threads[E.Thread], Locks[E.Object]);
      D.lockReleased(Threads[E.Thread], Locks[E.Object], true);
      break;
    case TraceEvent::Read:
      D.onRead(Threads[E.Thread], Base + E.Object);
      break;
    case TraceEvent::Write:
      D.onWrite(Threads[E.Thread], Base + E.Object);
      break;
    }
    if (GcEvery && ++Applied % GcEvery == 0)
      D.gcNow();
  }
  ReplayVerdict V;
  for (const RaceReport &R : D.reports())
    V.Fingerprints.push_back(pipeline::raceFingerprint(D.interner(), R));
  std::sort(V.Fingerprints.begin(), V.Fingerprints.end());
  V.Reported = D.stats().RacesReported;
  V.Suppressed = D.stats().ReportsSuppressed;
  return V;
}

TEST_P(TraceFuzz, GcDifferentialFuzz) {
  for (uint64_t Sub = 0; Sub < 20; ++Sub) {
    for (bool Disciplined : {false, true}) {
      Trace T = makeTrace(GetParam() * 1000 + Sub, Disciplined);
      DetectorOptions Off;
      Off.Gc = GcMode::Off;
      ReplayVerdict Base = replayFull(T, Off);
      // Periodic collections at hostile intervals, plus forced gcNow()
      // injections between arbitrary event pairs: all verdict-neutral.
      for (uint64_t Interval : {1ull, 7ull, 64ull}) {
        DetectorOptions On;
        On.Gc = GcMode::MinClock;
        On.GcIntervalEvents = Interval;
        EXPECT_EQ(Base, replayFull(T, On))
            << "trace seed " << GetParam() * 1000 + Sub
            << " disciplined=" << Disciplined << " interval=" << Interval;
      }
      DetectorOptions Forced;
      Forced.Gc = GcMode::MinClock;
      Forced.GcIntervalEvents = 0;
      EXPECT_EQ(Base, replayFull(T, Forced, /*GcEvery=*/3))
          << "trace seed " << GetParam() * 1000 + Sub
          << " disciplined=" << Disciplined << " forced";
    }
  }
}

/// Feeds \p T to \p D with named accesses, a frame per goroutine, and
/// an ending in which every worker finishes and is joined and every lock
/// is destroyed: goroutine states, sync slots, chains, residues, lock
/// sets and reports for a reset() to clear.
void feedTrace(Detector &D, const Trace &T) {
  std::vector<Tid> Threads{D.newRootGoroutine()};
  D.pushFrame(Threads[0], D.makeFrame("main", "main.go", 1));
  std::vector<SyncId> Locks;
  for (size_t I = 0; I < T.NumLocks; ++I)
    Locks.push_back(D.newSyncVar("lock" + std::to_string(I)));
  constexpr Addr Base = 0x5000;
  for (const TraceEvent &E : T.Events) {
    Tid Actor = Threads[E.Thread];
    switch (E.K) {
    case TraceEvent::Fork:
      Threads.push_back(D.fork(Actor));
      D.pushFrame(Threads.back(),
                  D.makeFrame("worker" + std::to_string(E.Object),
                              "worker.go", E.Object));
      break;
    case TraceEvent::Acquire:
      D.acquire(Actor, Locks[E.Object]);
      D.lockAcquired(Actor, Locks[E.Object], true);
      break;
    case TraceEvent::Release:
      D.release(Actor, Locks[E.Object]);
      D.lockReleased(Actor, Locks[E.Object], true);
      break;
    case TraceEvent::Read:
      D.onRead(Actor, Base + E.Object,
               D.interner().intern("v" + std::to_string(E.Object)));
      break;
    case TraceEvent::Write:
      D.onWrite(Actor, Base + E.Object,
                D.interner().intern("v" + std::to_string(E.Object)));
      break;
    }
  }
  for (size_t I = Threads.size(); I-- > 1;) {
    D.finish(Threads[I]);
    D.join(Threads[0], Threads[I]);
  }
  for (SyncId L : Locks)
    D.destroySyncVar(Threads[0], L);
}

template <typename T> std::vector<uint64_t> words(const T &Value) {
  static_assert(sizeof(T) % sizeof(uint64_t) == 0);
  std::vector<uint64_t> W(sizeof(T) / sizeof(uint64_t));
  std::memcpy(W.data(), &Value, sizeof(T));
  return W;
}

/// What a caller can observe of a detector fed \p Addrs addresses from
/// 0x5000 on. No interner id: ids are the one thing reset() keeps.
struct DetectorView {
  std::vector<uint64_t> Stats, Footprint, LockStats;
  size_t Goroutines = 0, SyncSlots = 0, LockSets = 0;
  std::vector<std::string> Reports, Clocks;
  std::vector<SyncGeneration> Generations;
  std::vector<bool> Shadowed;

  bool operator==(const DetectorView &) const = default;
};

DetectorView viewOf(const Detector &D, size_t Addrs) {
  DetectorView V;
  V.Stats = words(D.stats());
  V.Footprint = words(D.footprint());
  V.LockStats = words(D.lockSets().stats());
  V.Goroutines = D.numGoroutines();
  V.SyncSlots = D.numSyncVarSlots();
  V.LockSets = D.lockSets().numInternedSets();
  for (const RaceReport &R : D.reports())
    V.Reports.push_back(reportToString(D.interner(), R));
  for (Tid T = 0; T < D.numGoroutines(); ++T)
    V.Clocks.push_back(D.clockOf(T).str());
  V.Clocks.push_back(D.minClock().str());
  for (SyncId S = 0; S < D.numSyncVarSlots(); ++S)
    V.Generations.push_back(D.syncVarGeneration(S));
  for (size_t A = 0; A < Addrs; ++A)
    V.Shadowed.push_back(D.hasShadow(0x5000 + A));
  return V;
}

// A detector reset() after trace X and then fed trace Y is a fresh
// detector fed Y, under every mode, GC setting and chain setting, with
// X run under different options than Y; right after the reset it is an
// empty fresh detector. A wide run first grows the shadow table, so the
// reset after X clears only the slots X filled.
TEST_P(TraceFuzz, ResetEqualsAFreshDetector) {
  const DetectMode Modes[] = {DetectMode::HappensBefore,
                              DetectMode::LockSetOnly, DetectMode::Hybrid};
  for (uint64_t Sub = 0; Sub < 3; ++Sub) {
    uint64_t Seed = GetParam() * 1000 + Sub;
    Trace X = makeTrace(Seed, /*LockDisciplined=*/false);
    Trace Y = makeTrace(Seed + 500, /*LockDisciplined=*/Sub == 1);
    for (size_t M = 0; M < 3; ++M)
      for (GcMode Gc : {GcMode::Off, GcMode::MinClock})
        for (bool KeepChains : {true, false}) {
          DetectorOptions Before;
          Before.Mode = Modes[(M + 1) % 3];
          Before.Gc = Gc == GcMode::Off ? GcMode::MinClock : GcMode::Off;
          Before.KeepChains = !KeepChains;
          Before.GcIntervalEvents = 5;
          DetectorOptions After;
          After.Mode = Modes[M];
          After.Gc = Gc;
          After.KeepChains = KeepChains;
          After.GcIntervalEvents = 16;
          Detector Reused(Before);
          Tid Root = Reused.newRootGoroutine();
          for (Addr A = 0; A < 200; ++A)
            Reused.onWrite(Root, 0x5000 + A);
          Reused.reset(Before);
          feedTrace(Reused, X);
          Reused.reset(After);
          EXPECT_EQ(viewOf(Reused, X.NumAddrs),
                    viewOf(Detector(After), X.NumAddrs))
              << "trace seed " << Seed << " right after the reset";
          feedTrace(Reused, Y);
          Detector Fresh(After);
          feedTrace(Fresh, Y);
          EXPECT_EQ(viewOf(Reused, Y.NumAddrs), viewOf(Fresh, Y.NumAddrs))
              << "trace seed " << Seed << " mode " << M << " gc "
              << static_cast<int>(Gc) << " chains " << KeepChains;
        }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz, ::testing::Range<uint64_t>(1, 9));

// Past its bounds reset() drops what an outsized run grew and starts the
// interner empty, and the detector still equals a fresh one: 60,000
// named addresses grow the shadow table past MaxKeptSlots, and 5,000 of
// the names pass MaxKeptNames.
TEST(DetectorReset, OutsizedRunIsReleasedAndStillEqualsFresh) {
  Detector Reused;
  Tid T = Reused.newRootGoroutine();
  for (Addr A = 0; A < 60'000; ++A)
    Reused.onWrite(T, 0x100000 + A,
                   Reused.interner().intern(
                       A < 5'000 ? "name" + std::to_string(A) : "x"));
  ASSERT_GT(Reused.interner().size(), Detector::MaxKeptNames);
  Reused.reset(DetectorOptions());
  EXPECT_EQ(Reused.interner().size(), 1u);
  Trace Y = makeTrace(77, /*LockDisciplined=*/false);
  feedTrace(Reused, Y);
  Detector Fresh;
  feedTrace(Fresh, Y);
  EXPECT_EQ(viewOf(Reused, Y.NumAddrs), viewOf(Fresh, Y.NumAddrs));
}

//===----------------------------------------------------------------------===//
// Runtime-level program fuzzing
//===----------------------------------------------------------------------===//

/// A random program: \p Goroutines workers each performing \p OpsPerG
/// operations on a few shared cells. In the safe variant every access is
/// under the single mutex; in the bugged variant exactly one (goroutine,
/// op) site skips the lock.
struct ProgramShape {
  int Goroutines;
  int OpsPerG;
  int Cells;
  int BugGoroutine; // -1 = safe program.
  int BugOp;
};

ProgramShape makeShape(uint64_t Seed, bool Bugged) {
  support::Rng Rng(Seed);
  ProgramShape S;
  S.Goroutines = 2 + static_cast<int>(Rng.nextBelow(3));
  S.OpsPerG = 2 + static_cast<int>(Rng.nextBelow(4));
  S.Cells = 1 + static_cast<int>(Rng.nextBelow(3));
  S.BugGoroutine =
      Bugged ? static_cast<int>(Rng.nextBelow(S.Goroutines)) : -1;
  S.BugOp = static_cast<int>(Rng.nextBelow(S.OpsPerG));
  return S;
}

/// The shape's program as a reusable body, so the same random corpus
/// drives both direct Runtime runs and the sweep engines.
std::function<void()> makeBody(const ProgramShape &S) {
  return [S] {
    std::vector<std::shared_ptr<rt::Shared<int>>> Cells;
    for (int C = 0; C < S.Cells; ++C)
      Cells.push_back(std::make_shared<rt::Shared<int>>(
          "cell" + std::to_string(C), 0));
    auto Mu = std::make_shared<rt::Mutex>("mu");
    rt::WaitGroup Wg;
    for (int G = 0; G < S.Goroutines; ++G) {
      Wg.add(1);
      rt::go("worker", [S, &Wg, Cells, Mu, G] {
        for (int Op = 0; Op < S.OpsPerG; ++Op) {
          auto &Cell = *Cells[(G + Op) % S.Cells];
          bool SkipLock = G == S.BugGoroutine && Op == S.BugOp;
          if (!SkipLock)
            Mu->lock();
          Cell.store(Cell.load() + 1);
          if (!SkipLock)
            Mu->unlock();
        }
        Wg.done();
      });
    }
    Wg.wait();
  };
}

rt::RunResult runShape(const ProgramShape &S, uint64_t ScheduleSeed) {
  rt::Runtime RT(rt::withSeed(ScheduleSeed));
  return RT.run(makeBody(S));
}

class ProgramFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramFuzz, SafeProgramsCleanOnEverySchedule) {
  ProgramShape S = makeShape(GetParam(), /*Bugged=*/false);
  for (uint64_t Schedule = 1; Schedule <= 12; ++Schedule) {
    rt::RunResult Result = runShape(S, Schedule);
    EXPECT_EQ(Result.RaceCount, 0u)
        << "shape " << GetParam() << " schedule " << Schedule;
    EXPECT_TRUE(Result.MainFinished);
    EXPECT_FALSE(Result.Deadlocked);
  }
}

TEST_P(ProgramFuzz, BuggedProgramsAreCaughtBySweep) {
  ProgramShape S = makeShape(GetParam(), /*Bugged=*/true);
  size_t Detected = 0;
  for (uint64_t Schedule = 1; Schedule <= 24; ++Schedule)
    Detected += runShape(S, Schedule).RaceCount > 0;
  // The sweep must catch the bug, but NOT necessarily on every schedule:
  // the unlocked access is often happens-before-ordered with everything
  // through the buggy goroutine's own surrounding lock operations — the
  // §3.1 attribute-1 phenomenon ("it may not report all races ... as it
  // is dependent on the analyzed executions") reproduced in miniature.
  EXPECT_GE(Detected, 1u) << "shape " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProgramFuzz,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===//
// Adaptive-sweep properties over the randomized program corpus
//
// The AdaptiveSweepTest battery pins parity and determinism on the
// hand-built registry patterns; here the same properties are hammered
// with random program shapes, where nobody tuned the bodies to behave.
//===----------------------------------------------------------------------===//

class AdaptiveFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdaptiveFuzz, WeightZeroParityOnRandomBodies) {
  ProgramShape S = makeShape(GetParam(), /*Bugged=*/true);
  pipeline::SweepOptions Sw;
  Sw.FirstSeed = GetParam();
  Sw.NumSeeds = 24;
  pipeline::SweepResult Uniform = pipeline::sweep(Sw, makeBody(S));

  sweep::AdaptiveOptions A =
      sweep::adaptiveFrom(Sw, corpus::hostBody(makeBody(S)));
  A.ExploitWeight = 0.0;
  EXPECT_EQ(sweep::adaptive(A).Sweep, Uniform) << "shape " << GetParam();
}

TEST_P(AdaptiveFuzz, ThreadCountInvarianceOnRandomBodies) {
  ProgramShape S = makeShape(GetParam() * 31, /*Bugged=*/true);
  sweep::AdaptiveOptions A;
  A.FirstSeed = 1;
  A.NumRuns = 30;
  A.PlannerSeed = GetParam();
  A.Body = corpus::hostBody(makeBody(S));
  A.Threads = 1;
  sweep::AdaptiveResult Serial = sweep::adaptive(A);
  A.Threads = 4;
  EXPECT_EQ(sweep::adaptive(A), Serial) << "shape " << GetParam() * 31;
}

INSTANTIATE_TEST_SUITE_P(Shapes, AdaptiveFuzz,
                         ::testing::Range<uint64_t>(1, 7));

//===----------------------------------------------------------------------===//
// Chaos fuzzing: randomized FaultPlans against the resilient executor
//
// The ResilienceTest battery pins containment on one hand-built body and
// one plan; here BOTH the program and the fault schedule are randomized,
// and the acceptance properties must hold for every combination: no slot
// record is ever lost, retry/quarantine outcomes are identical for any
// thread count, and every non-faulted run's verdict is bit-identical to
// the fault-free sweep's.
//===----------------------------------------------------------------------===//

class ChaosFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosFuzz, RandomFaultPlansNeverCorruptTheSweep) {
  ProgramShape S = makeShape(GetParam() * 101, /*Bugged=*/true);
  const uint64_t NumSeeds = 14;

  inject::FaultPlanOptions PO;
  PO.PlanSeed = GetParam() * 13 + 1;
  PO.FirstSeed = 1;
  PO.NumSeeds = NumSeeds;
  PO.FaultRate = 0.3;
  PO.LatencyMicros = 20;
  inject::FaultPlan Plan = inject::makeFaultPlan(PO);

  sweep::ResilientOptions RO;
  RO.FirstSeed = PO.FirstSeed;
  RO.NumSeeds = NumSeeds;
  RO.Body = inject::instrumentedRunner(makeBody(S), Plan);
  // Generous watchdog budget: with concurrent CPU-spin saboteurs on
  // sibling workers a tight budget trips the soft path on INNOCENT runs
  // nondeterministically and breaks thread parity (DESIGN.md §9). The
  // calibrated budget keeps 500ms as the floor and scales it up on slow
  // (CI, sanitizer) hosts where 500ms of wall clock buys fewer steps.
  RO.Run.WatchdogMillis = rt::calibratedWatchdogBudgetMillis(500);
  RO.Run.MaxSteps = 20000;
  RO.MaxAttempts = 2;
  RO.RetryBackoffMicros = 0;
  std::string Journal = ::testing::TempDir() + "grs-chaos-" +
                        std::to_string(GetParam()) + ".ckpt";
  std::remove(Journal.c_str());
  RO.CheckpointPath = Journal;
  sweep::ResilientResult Serial = sweep::resilient(RO);
  ASSERT_TRUE(Serial.CheckpointError.empty()) << Serial.CheckpointError;

  // No lost slot records: the journal covers every slot exactly once.
  sweep::CheckpointLoad Load;
  std::string Error;
  ASSERT_TRUE(sweep::loadCheckpoint(Journal, Load, Error)) << Error;
  std::set<uint64_t> Slots;
  for (const sweep::SlotRecord &R : Load.Records) {
    EXPECT_LT(R.Slot, NumSeeds);
    EXPECT_TRUE(Slots.insert(R.Slot).second)
        << "slot " << R.Slot << " journaled twice";
  }
  EXPECT_EQ(Slots.size(), NumSeeds);

  // Deterministic retry/quarantine outcomes for any thread count.
  RO.CheckpointPath.clear();
  for (unsigned Threads : {2u, 8u}) {
    RO.Threads = Threads;
    EXPECT_EQ(sweep::resilient(RO), Serial)
        << "shape " << GetParam() << ", " << Threads
        << " threads diverged";
  }

  // Verdict parity: every slot the plan did not disturb (un-faulted or
  // benign latency spike) is bit-identical to the fault-free sweep's
  // record for that slot.
  sweep::ResilientOptions Clean = RO;
  Clean.Threads = 1;
  Clean.Body = corpus::hostBody(makeBody(S));
  std::remove(Journal.c_str());
  Clean.CheckpointPath = Journal;
  sweep::ResilientResult CleanResult = sweep::resilient(Clean);
  ASSERT_TRUE(CleanResult.CheckpointError.empty())
      << CleanResult.CheckpointError;
  EXPECT_TRUE(CleanResult.Quarantined.empty());
  sweep::CheckpointLoad CleanLoad;
  ASSERT_TRUE(sweep::loadCheckpoint(Journal, CleanLoad, Error)) << Error;

  std::map<uint64_t, sweep::SlotRecord> Faulted;
  for (const sweep::SlotRecord &R : Load.Records)
    Faulted[R.Slot] = R;
  size_t Compared = 0;
  for (const sweep::SlotRecord &CleanRec : CleanLoad.Records) {
    const inject::FaultSpec *Spec = Plan.faultFor(CleanRec.Seed);
    if (Spec && Spec->Kind != inject::FaultKind::LatencySpike)
      continue;
    ASSERT_TRUE(Faulted.count(CleanRec.Slot));
    EXPECT_EQ(Faulted[CleanRec.Slot], CleanRec)
        << "shape " << GetParam() << " slot " << CleanRec.Slot;
    ++Compared;
  }
  EXPECT_GT(Compared, 0u);
  std::remove(Journal.c_str());
}

INSTANTIATE_TEST_SUITE_P(Plans, ChaosFuzz, ::testing::Range<uint64_t>(1, 4));

//===----------------------------------------------------------------------===//
// Pool chaos fuzzing: random fault plans drawn from the PROCESS-LETHAL
// kinds (plus GoPanic for in-process contrast), pointed at the persistent
// worker pool. The properties are the containment layer's acceptance
// criteria: worker deaths never lose a slot record even though each dead
// worker's records are salvaged from its socket and the slots it held
// are requeued, the unified attempt budget keeps pooled quarantine
// decisions identical to the fork-free downgrade's, and the untouched
// slots stay bit-identical to the fault-free sweep.
//===----------------------------------------------------------------------===//

class PoolChaosFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolChaosFuzz, RandomLethalPlansAreContainedByThePool) {
  ProgramShape S = makeShape(GetParam() * 223, /*Bugged=*/true);
  const uint64_t NumSeeds = 12;

  inject::FaultPlanOptions PO;
  PO.PlanSeed = GetParam() * 31 + 11;
  PO.FirstSeed = 1;
  PO.NumSeeds = NumSeeds;
  PO.FaultRate = 0.35;
  PO.LethalChronicFraction = 0.3;
  for (size_t K = 0; K < inject::NumFaultKinds; ++K) {
    auto Kind = static_cast<inject::FaultKind>(K);
    PO.Weights[K] = (Kind == inject::FaultKind::GoPanic ||
                     inject::isLethalFault(Kind))
                        ? 1.0
                        : 0.0;
  }
  inject::FaultPlan Plan = inject::makeFaultPlan(PO);

  sweep::PoolOptions Pool;
  Pool.Base.FirstSeed = PO.FirstSeed;
  Pool.Base.NumSeeds = NumSeeds;
  Pool.Base.Threads = 2;
  Pool.Base.MaxAttempts = 2;
  Pool.Base.RetryBackoffMicros = 0;
  Pool.Base.Run.MaxSteps = 20000;
  Pool.Base.Body = inject::instrumentedRunner(makeBody(S), Plan);
  Pool.Host.RespawnBackoffMicros = 0; // deaths are the point; don't wait
  // Roomy headroom above the gtest parent's address space, so only
  // HeapExhaustion should be able to hit the cap (see PoolTest).
  Pool.Host.RlimitAsBytes = 768ull << 20;
  std::string Journal = ::testing::TempDir() + "grs-pool-chaos-" +
                        std::to_string(GetParam()) + ".ckpt";
  std::remove(Journal.c_str());
  Pool.Base.CheckpointPath = Journal;
  sweep::PoolResult Pooled = sweep::pooled(Pool);
  ASSERT_TRUE(Pooled.Res.CheckpointError.empty())
      << Pooled.Res.CheckpointError;
  EXPECT_FALSE(Pooled.Stats.ForkFree);

  // No lost slot records: despite worker deaths and salvage, the journal
  // covers every slot exactly once.
  sweep::CheckpointLoad Load;
  std::string Error;
  ASSERT_TRUE(sweep::loadCheckpoint(Journal, Load, Error)) << Error;
  std::set<uint64_t> Slots;
  for (const sweep::SlotRecord &R : Load.Records) {
    EXPECT_LT(R.Slot, NumSeeds);
    EXPECT_TRUE(Slots.insert(R.Slot).second)
        << "slot " << R.Slot << " journaled twice";
  }
  EXPECT_EQ(Slots.size(), NumSeeds);

  // Unified attempt budget: the fork-free downgrade reaches the same
  // quarantine decisions, merged sweep, and retry totals.
  sweep::PoolOptions FF = Pool;
  FF.Host.ForceForkFree = true;
  FF.Base.CheckpointPath.clear();
  sweep::PoolResult Degraded = sweep::pooled(FF);
  EXPECT_TRUE(Degraded.Stats.ForkFree);
  EXPECT_EQ(Degraded.Stats.WorkerSpawns, 0u);
  EXPECT_EQ(Degraded.Res.Sweep, Pooled.Res.Sweep);
  EXPECT_EQ(Degraded.Res.Retries, Pooled.Res.Retries);
  auto QuarantineMap = [](const sweep::ResilientResult &R) {
    std::map<uint64_t, uint32_t> M;
    for (const sweep::SlotRecord &Q : R.Quarantined)
      M[Q.Seed] = Q.Attempts;
    return M;
  };
  EXPECT_EQ(QuarantineMap(Pooled.Res), QuarantineMap(Degraded.Res))
      << "plan " << GetParam()
      << ": pooled vs fork-free quarantines diverged";

  // Verdict parity: every slot the plan did not touch is bit-identical
  // to the fault-free sweep's record.
  sweep::ResilientOptions Clean = Pool.Base;
  Clean.Threads = 1;
  Clean.Body = corpus::hostBody(makeBody(S));
  std::remove(Journal.c_str());
  Clean.CheckpointPath = Journal;
  sweep::ResilientResult CleanResult = sweep::resilient(Clean);
  ASSERT_TRUE(CleanResult.CheckpointError.empty())
      << CleanResult.CheckpointError;
  sweep::CheckpointLoad CleanLoad;
  ASSERT_TRUE(sweep::loadCheckpoint(Journal, CleanLoad, Error)) << Error;
  std::map<uint64_t, sweep::SlotRecord> Faulted;
  for (const sweep::SlotRecord &R : Load.Records)
    Faulted[R.Slot] = R;
  size_t Compared = 0;
  for (const sweep::SlotRecord &CleanRec : CleanLoad.Records) {
    if (Plan.faulted(CleanRec.Seed))
      continue;
    ASSERT_TRUE(Faulted.count(CleanRec.Slot));
    EXPECT_EQ(Faulted[CleanRec.Slot], CleanRec)
        << "plan " << GetParam() << " slot " << CleanRec.Slot;
    ++Compared;
  }
  EXPECT_GT(Compared, 0u);
  std::remove(Journal.c_str());
}

INSTANTIATE_TEST_SUITE_P(Plans, PoolChaosFuzz,
                         ::testing::Range<uint64_t>(1, 3));

//===----------------------------------------------------------------------===//
// Language-level differential fuzzing
//===----------------------------------------------------------------------===//

class LangFuzz : public ::testing::TestWithParam<uint64_t> {};

// The third fuzzer: lang::Generator emits grs programs with KNOWN ground
// truth (racy programs race on every schedule; benign programs cannot
// race, leak, panic, or deadlock) and the differential harness sweeps
// each one through the interpreter. Any disagreement between the label
// and the detector is a bug in the generator, the interpreter, or the
// detector — all three are on trial. LangGenerator.DifferentialGroundTruthHolds
// runs programs 1-500 at 8 seeds; these windows cover the first 120.
TEST_P(LangFuzz, GeneratedGroundTruthNeverDisagrees) {
  lang::DifferentialOptions Opts;
  Opts.FirstProgram = 1 + (GetParam() - 1) * 60;
  Opts.NumPrograms = 60;
  Opts.SweepSeeds = 5;
  lang::DifferentialOutcome Out = lang::differentialSweep(Opts);
  EXPECT_EQ(Out.Programs, 60u);
  EXPECT_EQ(Out.ParseFailures, 0u);
  EXPECT_TRUE(Out.ok()) << Out.Misses << " misses, " << Out.FalsePositives
                        << " false positives, " << Out.Panics << " panics, "
                        << Out.Deadlocks << " deadlocks, " << Out.Leaks
                        << " leaks (window " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Windows, LangFuzz, ::testing::Range<uint64_t>(1, 3));

} // namespace
