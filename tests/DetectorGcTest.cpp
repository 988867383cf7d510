//===- tests/DetectorGcTest.cpp - Min-clock shadow-GC differential battery -===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The safety contract of GcMode::MinClock (DESIGN.md §13) is that
// collection is VERDICT-NEUTRAL: a detector that reclaims dominated
// shadow state reports bit-for-bit the same races — same fingerprints,
// same counts, same ReportOnce suppression, same rendered sample
// reports — as one that never reclaims anything. This file is the proof
// battery:
//
//  * differential sweeps of every corpus::Pattern (racy AND fixed
//    variants), every .grs port, and 1000 generated lang programs,
//    GC-on vs GC-off, at aggressive collection intervals;
//  * parallel-executor parity at Threads in {1,2,8} on the port bodies;
//  * targeted unit scripts for the sharp edges: a retired cell
//    re-accessed afterwards, ReportOnce dedup surviving retirement,
//    collection firing inside a critical section, and the sync-object
//    destroy/reuse lifecycle;
//  * the memory bound itself: a workload whose shadow footprint grows
//    linearly with GC off and plateaus with GC on — pinned in BOTH
//    directions so the test fails if either side regresses.
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "lang/Generator.h"
#include "lang/Interp.h"
#include "lang/Ports.h"
#include "pipeline/Fingerprint.h"
#include "pipeline/Sweep.h"
#include "race/Detector.h"
#include "rt/Channel.h"
#include "rt/Instr.h"
#include "rt/Runtime.h"
#include "rt/Sync.h"
#include "sweep/Resilient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace grs;
using namespace grs::race;

namespace {

DetectorOptions gcOff() {
  DetectorOptions Opts;
  Opts.Gc = GcMode::Off;
  return Opts;
}

DetectorOptions gcOn(uint64_t IntervalEvents = 4096) {
  DetectorOptions Opts;
  Opts.Gc = GcMode::MinClock;
  Opts.GcIntervalEvents = IntervalEvents;
  return Opts;
}

//===----------------------------------------------------------------------===//
// VectorClock::minWith
//===----------------------------------------------------------------------===//

TEST(MinClock, MinWithIsComponentwiseMinTruncatedToShorter) {
  VectorClock A, B;
  A.set(0, 5);
  A.set(1, 2);
  A.set(2, 9); // Component B lacks: must drop, not survive.
  B.set(0, 3);
  B.set(1, 7);

  A.minWith(B);
  EXPECT_EQ(A.size(), 2u);
  EXPECT_EQ(A.get(0), 3u);
  EXPECT_EQ(A.get(1), 2u);
  EXPECT_EQ(A.get(2), 0u); // Absent == 0: B never saw thread 2.
}

TEST(MinClock, MinWithEmptyOperandYieldsEmpty) {
  VectorClock A, Empty;
  A.set(0, 4);
  A.minWith(Empty);
  EXPECT_EQ(A.size(), 0u);
}

TEST(MinClock, MinWithNeverGrowsTheResult) {
  VectorClock Short, Long;
  Short.set(0, 1);
  Long.set(0, 2);
  Long.set(5, 8);
  Short.minWith(Long);
  EXPECT_EQ(Short.size(), 1u);
  EXPECT_EQ(Short.get(0), 1u);
}

//===----------------------------------------------------------------------===//
// Differential sweeps: runner-style workloads (corpus patterns)
//===----------------------------------------------------------------------===//

// pipeline::SweepResult's operator== compares everything down to each
// finding's rendered sample report, the strongest equality the pipeline
// defines.
TEST(GcDifferential, EveryCorpusPatternRacyAndFixed) {
  pipeline::SweepOptions Off;
  Off.NumSeeds = 20;
  Off.Run.Detector = gcOff();
  // Default interval plus an aggressive one (a collection roughly every
  // 17 events) so GC actually fires inside these short runs.
  pipeline::SweepOptions On = Off, On17 = Off;
  On.Run.Detector = gcOn();
  On17.Run.Detector = gcOn(17);
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    for (bool Racy : {true, false}) {
      const pipeline::Runner &Run = Racy ? P.RunRacy : P.RunFixed;
      pipeline::SweepResult Base = pipeline::sweep(Off, Run);
      EXPECT_EQ(Base, pipeline::sweep(On, Run))
          << P.Id << (Racy ? " racy" : " fixed") << " default interval";
      EXPECT_EQ(Base, pipeline::sweep(On17, Run))
          << P.Id << (Racy ? " racy" : " fixed") << " interval 17";
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential sweeps: every .grs port, serial and parallel executors
//===----------------------------------------------------------------------===//

TEST(GcDifferential, EveryGrsPortSerialAndParallel) {
  for (const lang::LangPort &Port : lang::langPorts()) {
    std::string Path = lang::findTestdataPath(Port.File);
    ASSERT_FALSE(Path.empty()) << Port.File;
    std::string Error;
    lang::ParseResult Parsed = lang::loadProgramFile(Path, &Error);
    ASSERT_TRUE(Parsed.ok()) << Port.File << ": " << Error;

    pipeline::SweepOptions Off;
    Off.NumSeeds = 24;
    Off.Run.Detector = gcOff();
    pipeline::SweepResult Base = pipeline::sweep(Off, lang::body(Parsed.Prog));

    pipeline::SweepOptions On = Off;
    On.Run.Detector = gcOn(17);
    EXPECT_EQ(Base, pipeline::sweep(On, lang::body(Parsed.Prog)))
        << Port.Id << " serial";

    // Executor matrix: the parallel sweep is specified indistinguishable
    // from the serial one, and that must keep holding with GC enabled.
    for (unsigned Threads : {1u, 2u, 8u}) {
      sweep::ResilientOptions Par =
          sweep::resilientFrom(On, lang::runner(Parsed.Prog));
      Par.Threads = Threads;
      Par.MaxAttempts = 1;
      sweep::ResilientResult R = sweep::resilient(Par);
      EXPECT_TRUE(R.Quarantined.empty()) << Port.Id << " threads=" << Threads;
      EXPECT_EQ(Base, R.Sweep) << Port.Id << " threads=" << Threads;
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential sweeps: 1000 generated programs
//===----------------------------------------------------------------------===//

TEST(GcDifferential, ThousandGeneratedPrograms) {
  for (uint64_t ProgramSeed = 1; ProgramSeed <= 1000; ++ProgramSeed) {
    lang::GeneratedProgram G = lang::generateProgram(ProgramSeed);
    ASSERT_TRUE(G.Parsed.ok()) << "program " << ProgramSeed;
    pipeline::Runner Run = lang::runner(G.Parsed.Prog);

    for (uint64_t Seed : {1ull, 2ull}) {
      std::vector<uint64_t> FpOff, FpOn;
      size_t RacesOff = 0, RacesOn = 0;
      auto RunOne = [&](const DetectorOptions &Det,
                        std::vector<uint64_t> &Fps) {
        rt::RunOptions Opts;
        Opts.Seed = Seed;
        Opts.Detector = Det;
        Opts.OnReport = [&Fps](const race::Detector &D,
                               const race::RaceReport &R) {
          Fps.push_back(pipeline::raceFingerprint(D.interner(), R));
        };
        rt::RunResult R = Run(Opts);
        std::sort(Fps.begin(), Fps.end());
        return R.RaceCount;
      };
      RacesOff = RunOne(gcOff(), FpOff);
      RacesOn = RunOne(gcOn(13), FpOn);
      ASSERT_EQ(RacesOff, RacesOn)
          << "program " << ProgramSeed << " seed " << Seed;
      ASSERT_EQ(FpOff, FpOn)
          << "program " << ProgramSeed << " seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// Targeted scripts: retirement, rebuild, dedup, mid-critical-section GC
//===----------------------------------------------------------------------===//

/// Verdict summary of a raw-detector script, strong enough to witness
/// divergence in count, identity, or suppression.
struct Verdict {
  std::vector<uint64_t> Fingerprints;
  uint64_t Reported = 0;
  uint64_t Suppressed = 0;

  bool operator==(const Verdict &) const = default;
};

Verdict verdictOf(const Detector &D) {
  Verdict V;
  for (const RaceReport &R : D.reports())
    V.Fingerprints.push_back(pipeline::raceFingerprint(D.interner(), R));
  std::sort(V.Fingerprints.begin(), V.Fingerprints.end());
  V.Reported = D.stats().RacesReported;
  V.Suppressed = D.stats().ReportsSuppressed;
  return V;
}

/// The retirement round-trip script: a cell races, its accessors all
/// become dominated, GC retires it (when \p ForceGc), and then fresh
/// goroutines race on the same address again. The second race must be
/// suppressed (ReportOnce residue) or reported (ReportOnce off)
/// identically in both modes.
Verdict retireReaccessScript(DetectorOptions Opts, bool ForceGc) {
  Detector D(Opts);
  Tid T0 = D.newRootGoroutine();
  Tid T1 = D.fork(T0);
  constexpr Addr A = 0x9000;

  // Race #1: unordered writes by T0 and T1.
  D.onWrite(T1, A, D.interner().intern("x"));
  D.onWrite(T0, A, D.interner().intern("x"));

  // Dominate everything: T1 finishes, T0 joins it. MinClock becomes
  // T0's clock, which covers both writes.
  D.finish(T1);
  D.join(T0, T1);

  if (ForceGc) {
    D.gcNow();
    EXPECT_FALSE(D.hasShadow(A)) << "dominated racy cell not retired";
    EXPECT_GE(D.stats().GcCellsRetired, 1u);
    EXPECT_GE(D.footprint().RetiredCells, 1u);
  }

  // Race #2 on the SAME address from a fresh goroutine. The rebuilt cell
  // must remember it already reported (ReportOnce) and the variable name.
  Tid T2 = D.fork(T0);
  D.onWrite(T2, A, D.interner().intern("x"));
  D.onWrite(T0, A, D.interner().intern("x"));
  if (ForceGc) {
    EXPECT_TRUE(D.hasShadow(A)) << "re-access did not rebuild the cell";
  }
  return verdictOf(D);
}

TEST(GcTargeted, RetiredCellReaccessedMatchesNeverCollected) {
  for (bool ReportOnce : {true, false}) {
    DetectorOptions On = gcOn(0); // Collections only via gcNow().
    On.ReportOncePerAddress = ReportOnce;
    DetectorOptions Off = gcOff();
    Off.ReportOncePerAddress = ReportOnce;
    Verdict WithGc = retireReaccessScript(On, /*ForceGc=*/true);
    Verdict Without = retireReaccessScript(Off, /*ForceGc=*/false);
    EXPECT_EQ(WithGc, Without) << "ReportOnce=" << ReportOnce;
    // The script really does race twice; with dedup on, exactly one of
    // the two must have been suppressed.
    EXPECT_EQ(Without.Suppressed, ReportOnce ? 1u : 0u);
    EXPECT_EQ(Without.Reported, ReportOnce ? 1u : 2u);
  }
}

TEST(GcTargeted, GcInsideCriticalSectionIsVerdictNeutral) {
  auto Script = [](DetectorOptions Opts, bool ForceGc) {
    Detector D(Opts);
    Tid T0 = D.newRootGoroutine();
    Tid T1 = D.fork(T0);
    SyncId Mu = D.newSyncVar("mu");
    constexpr Addr A = 0xA000;

    // T1 writes under the lock, finishes; T0 joins, then collects while
    // HOLDING the lock, then writes the same address under the lock.
    D.acquire(T1, Mu);
    D.lockAcquired(T1, Mu, true);
    D.onWrite(T1, A, D.interner().intern("g"));
    D.release(T1, Mu);
    D.lockReleased(T1, Mu, true);
    D.finish(T1);
    D.join(T0, T1);

    D.acquire(T0, Mu);
    D.lockAcquired(T0, Mu, true);
    if (ForceGc)
      D.gcNow(); // Mid-critical-section collection.
    D.onWrite(T0, A, D.interner().intern("g"));
    D.release(T0, Mu);
    D.lockReleased(T0, Mu, true);
    return verdictOf(D);
  };

  for (DetectMode Mode :
       {DetectMode::HappensBefore, DetectMode::LockSetOnly,
        DetectMode::Hybrid}) {
    DetectorOptions On = gcOn(0);
    On.Mode = Mode;
    DetectorOptions Off = gcOff();
    Off.Mode = Mode;
    EXPECT_EQ(Script(On, true), Script(Off, false))
        << "mode " << static_cast<int>(Mode);
  }
}

TEST(GcTargeted, RuntimeWorkloadWithPerEventCollections) {
  // Collection every single counted event, through the full runtime
  // stack (mutexes, channels, goroutines): the harshest schedule of
  // collections possible, swept against the never-collecting baseline.
  auto Body = [] {
    rt::Mutex Mu("mu");
    rt::Chan<rt::Unit> Done(0, "done");
    auto Counter = std::make_shared<rt::Shared<int>>("counter");
    for (int W = 0; W < 3; ++W)
      rt::go("worker", [&Mu, &Done, Counter] {
        for (int I = 0; I < 4; ++I) {
          rt::LockGuard<rt::Mutex> G(Mu);
          *Counter = Counter->load() + 1;
        }
        Done.send({});
      });
    for (int W = 0; W < 3; ++W)
      Done.recv();
  };

  pipeline::SweepOptions Off;
  Off.NumSeeds = 30;
  Off.Run.Detector = gcOff();
  pipeline::SweepResult Base = pipeline::sweep(Off, Body);
  pipeline::SweepOptions On = Off;
  On.Run.Detector = gcOn(1);
  EXPECT_EQ(Base, pipeline::sweep(On, Body));
  EXPECT_TRUE(Base.clean());
}

//===----------------------------------------------------------------------===//
// Sync-object lifecycle: destroy, generations, free-list policy
//===----------------------------------------------------------------------===//

TEST(SyncLifecycle, DestroyBumpsGenerationAndRecyclesUnlockedIds) {
  Detector D((DetectorOptions()));
  Tid T0 = D.newRootGoroutine();

  SyncId S = D.newSyncVar("chan.pend");
  EXPECT_TRUE(D.syncVarLive(S));
  EXPECT_EQ(D.syncVarGeneration(S), 0u);

  D.releaseMerge(T0, S); // Used as an HB edge, but never as a LOCK.
  D.destroySyncVar(T0, S);
  EXPECT_FALSE(D.syncVarLive(S));
  EXPECT_EQ(D.syncVarGeneration(S), 1u);
  EXPECT_EQ(D.stats().SyncVarsDestroyed, 1u);

  // Never-locked ids are recycled: the next allocation reuses the slot.
  size_t SlotsBefore = D.numSyncVarSlots();
  SyncId S2 = D.newSyncVar("chan.pend2");
  EXPECT_EQ(S2, S);
  EXPECT_EQ(D.numSyncVarSlots(), SlotsBefore);
  EXPECT_EQ(D.stats().SyncIdsReused, 1u);
  EXPECT_TRUE(D.syncVarLive(S2));
}

TEST(SyncLifecycle, LockedIdsAreNeverRecycled) {
  Detector D((DetectorOptions()));
  Tid T0 = D.newRootGoroutine();

  SyncId Mu = D.newSyncVar("mu");
  D.acquire(T0, Mu);
  D.lockAcquired(T0, Mu, true); // Now it may sit in Eraser candidate sets.
  D.release(T0, Mu);
  D.lockReleased(T0, Mu, true);
  D.destroySyncVar(T0, Mu);
  EXPECT_FALSE(D.syncVarLive(Mu));

  // The id must NOT come back: a recycled lock id could alias a stale
  // entry in an interned candidate lock set.
  SyncId Next = D.newSyncVar("mu2");
  EXPECT_NE(Next, Mu);
  EXPECT_EQ(D.stats().SyncIdsReused, 0u);
}

TEST(SyncLifecycle, OpsOnDestroyedIdsAreBenignNoOps) {
  Detector D((DetectorOptions()));
  Tid T0 = D.newRootGoroutine();
  SyncId S = D.newSyncVar("s");
  D.destroySyncVar(T0, S);

  VectorClock Before = D.clockOf(T0);
  D.acquire(T0, S);
  D.release(T0, S);
  D.releaseMerge(T0, S);
  EXPECT_EQ(D.stats().DeadSyncOps, 3u);
  EXPECT_EQ(D.clockOf(T0), Before); // No HB effect from dead slots.

  // Double destroy and out-of-range destroy are equally benign.
  D.destroySyncVar(T0, S);
  D.destroySyncVar(T0, static_cast<SyncId>(10'000));
  EXPECT_EQ(D.stats().SyncVarsDestroyed, 1u);
}

//===----------------------------------------------------------------------===//
// The memory bound: plateau with GC, linear growth without
//===----------------------------------------------------------------------===//

/// A sync-heavy long-running workload built to separate the modes:
/// each round forks a fresh goroutine (thread clocks only a GC can trim)
/// that writes a FRESH address (a shadow cell only a GC can retire) and
/// hands back through a rendezvous channel. Addresses are heap-stable
/// for the whole run so the runtime cannot merge cells by reuse.
struct FootprintTrack {
  ShadowFootprint Quarter;
  ShadowFootprint End;
};

FootprintTrack runRounds(DetectorOptions Det, int Rounds) {
  FootprintTrack Track;
  rt::RunOptions Opts;
  Opts.Seed = 1;
  Opts.PreemptProbability = 0; // Deterministic and fast.
  Opts.Detector = Det;
  rt::Runtime RT(Opts);
  rt::RunResult R = RT.run([&] {
    std::vector<rt::Shared<int>> Cells;
    Cells.reserve(static_cast<size_t>(Rounds));
    for (int I = 0; I < Rounds; ++I)
      Cells.emplace_back("cell");
    rt::Chan<rt::Unit> Done(0, "done");
    for (int I = 0; I < Rounds; ++I) {
      rt::go("round", [&Cells, &Done, I] {
        Cells[static_cast<size_t>(I)] = I;
        Done.send({});
      });
      Done.recv();
      if (I + 1 == Rounds / 4)
        Track.Quarter = RT.det().footprint();
    }
    Track.End = RT.det().footprint();
  });
  EXPECT_TRUE(R.MainFinished);
  return Track;
}

TEST(GcBound, ShadowFootprintPlateausWithGcAndGrowsWithout) {
  constexpr int Rounds = 96;
  FootprintTrack Off = runRounds(gcOff(), Rounds);
  FootprintTrack On = runRounds(gcOn(64), Rounds);

  // Without GC the per-round cells accumulate: strictly linear growth,
  // pinned from below.
  EXPECT_GE(Off.End.ShadowCells, static_cast<uint64_t>(Rounds));
  EXPECT_GE(Off.End.ShadowCells, 3 * Off.Quarter.ShadowCells);
  EXPECT_GE(Off.End.VcWords, 2 * Off.Quarter.VcWords);

  // With GC the live set plateaus: what remains at the end is a small
  // working set, not the whole history. Pinned from above. (VcWords is
  // NOT pinned lower here: goroutine clocks are only trimmable after a
  // detector-level join edge, which channel handback does not create —
  // the VcWords plateau is pinned by the join-bearing script below.)
  EXPECT_LE(On.End.ShadowCells, static_cast<uint64_t>(Rounds) / 4);
  EXPECT_GE(On.End.ReclaimedCells, static_cast<uint64_t>(Rounds) / 2);

  // Both runs saw the same program: live + reclaimed under GC accounts
  // for at least the cells GC-off is still holding.
  EXPECT_GE(On.End.ShadowCells + On.End.ReclaimedCells,
            Off.End.ShadowCells);
}

TEST(GcBound, VcWordsPlateauWithJoinedWorkers) {
  // fork -> write fresh address -> finish -> join, round after round:
  // the canonical worker-pool shape. Every round's thread clock and
  // shadow cell become dominated the moment the join lands, so GC keeps
  // the clock budget at O(rounds) words (main's own clock still grows
  // one component per fork) while GC-off retains every worker's full
  // clock — O(rounds^2) words. With \p ReadBack each worker also reads
  // what it wrote and the parent re-reads it after the join, so accesses
  // dominate the events as in instrumented workloads.
  auto Run = [](DetectorOptions Opts, int Rounds, Addr PerRound,
                bool ReadBack) {
    Detector D(Opts);
    Tid T0 = D.newRootGoroutine();
    for (int I = 0; I < Rounds; ++I) {
      Tid W = D.fork(T0);
      Addr First = 0xB000 + static_cast<Addr>(I) * PerRound;
      for (Addr A = First; A < First + PerRound; ++A) {
        D.onWrite(W, A);
        if (ReadBack)
          D.onRead(W, A);
      }
      D.finish(W);
      D.join(T0, W);
      if (ReadBack)
        for (Addr A = First; A < First + PerRound; ++A)
          D.onRead(T0, A);
    }
    return D.footprint();
  };

  constexpr int Rounds = 200;
  ShadowFootprint Off = Run(gcOff(), Rounds, 1, false);
  ShadowFootprint On = Run(gcOn(64), Rounds, 1, false);
  EXPECT_GE(Off.VcWords, static_cast<uint64_t>(Rounds) *
                             static_cast<uint64_t>(Rounds) / 4);
  EXPECT_LE(On.VcWords, Off.VcWords / 8);
  EXPECT_LE(On.ShadowCells, static_cast<uint64_t>(Rounds) / 4);
  EXPECT_GE(On.ReclaimedVcWords, Off.VcWords / 2);

  // A long run of the access-dominated shape (27 events a round) at a
  // hostile collection interval: the live set stays a small multiple of
  // the live threads, and at least 8x smaller than the GC-off heap.
  constexpr int LongRounds = 2000;
  ShadowFootprint LongOff = Run(gcOff(), LongRounds, 8, true);
  ShadowFootprint LongOn = Run(gcOn(17), LongRounds, 8, true);
  EXPECT_LE(LongOn.ShadowCells, static_cast<uint64_t>(LongRounds) / 4);
  EXPECT_LE(LongOn.VcWords, LongOff.VcWords / 8);
  EXPECT_LE(LongOn.ShadowCells * 8, LongOff.ShadowCells);
}

TEST(GcBound, PeakFootprintIsMonotoneAcrossCollections) {
  Detector D(gcOn(0));
  Tid T0 = D.newRootGoroutine();
  Tid T1 = D.fork(T0);
  for (Addr A = 0x100; A < 0x140; ++A)
    D.onWrite(T1, A);
  uint64_t PeakBefore = D.footprint().PeakShadowCells;
  EXPECT_GE(PeakBefore, 0x40u);

  D.finish(T1);
  D.join(T0, T1);
  D.gcNow();

  ShadowFootprint After = D.footprint();
  EXPECT_LT(After.ShadowCells, 0x40u); // Live state collapsed...
  EXPECT_GE(After.PeakShadowCells, PeakBefore); // ...peaks did not.
  EXPECT_GE(After.PeakVcWords, After.VcWords);

  // More work can only raise the peaks further.
  Tid T2 = D.fork(T0);
  for (Addr A = 0x200; A < 0x280; ++A)
    D.onWrite(T2, A);
  EXPECT_GE(D.footprint().PeakShadowCells, After.PeakShadowCells);
}

} // namespace
