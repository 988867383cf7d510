//===- bench/bench_detector.cpp - Detector microbenchmarks (ablations) -----===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Ablation benchmarks for the detector's design choices (DESIGN.md §4):
//
//  * FastTrack's same-epoch fast path vs forced read-VC promotion
//    ("Vector clocks are expensive both in space and time", §3.1);
//  * call-chain retention on/off (report quality vs throughput);
//  * lock-set interning and memoized intersection;
//  * §3.3.1 fingerprint throughput;
//  * min-clock shadow GC: collection cost and GC-on vs GC-off workload
//    throughput.
//
// Uses google-benchmark; run with --benchmark_filter=... as usual.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Fingerprint.h"
#include "race/Detector.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace grs;
using namespace grs::race;

//===----------------------------------------------------------------------===//
// FastTrack access paths
//===----------------------------------------------------------------------===//

/// Same-thread repeated writes: the FastTrack same-epoch fast path.
static void BM_SameEpochWrites(benchmark::State &State) {
  Detector D;
  Tid T0 = D.newRootGoroutine();
  for (auto _ : State) {
    for (Addr A = 0x100; A < 0x110; ++A)
      D.onWrite(T0, A);
  }
  State.SetItemsProcessed(State.iterations() * 16);
}
BENCHMARK(BM_SameEpochWrites);

/// Lock-ordered alternating writers: epoch updates without promotion.
static void BM_OrderedHandoffWrites(benchmark::State &State) {
  Detector D;
  Tid T0 = D.newRootGoroutine();
  Tid T1 = D.fork(T0);
  SyncId M = D.newSyncVar("m");
  for (auto _ : State) {
    D.acquire(T0, M);
    D.onWrite(T0, 0x100);
    D.release(T0, M);
    D.acquire(T1, M);
    D.onWrite(T1, 0x100);
    D.release(T1, M);
  }
  State.SetItemsProcessed(State.iterations() * 2);
}
BENCHMARK(BM_OrderedHandoffWrites);

/// Read-shared cells: every access hits the promoted read vector clock —
/// the slow path the epoch representation exists to avoid.
static void BM_ReadSharedAccesses(benchmark::State &State) {
  Detector D;
  Tid T0 = D.newRootGoroutine();
  std::vector<Tid> Readers;
  for (int I = 0; I < 8; ++I)
    Readers.push_back(D.fork(T0));
  SyncId M = D.newSyncVar("pulse");
  size_t Next = 0;
  for (auto _ : State) {
    // Rotate readers so the read VC keeps being consulted and updated;
    // the acquire advances each reader's clock so reads are not all
    // same-epoch fast-path hits.
    Tid Reader = Readers[Next++ % Readers.size()];
    D.releaseMerge(Reader, M);
    D.onRead(Reader, 0x200);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ReadSharedAccesses);

/// Chain retention ablation: the cost of copying call chains into shadow
/// cells at every access.
static void BM_AccessWithChains(benchmark::State &State) {
  DetectorOptions Opts;
  Opts.KeepChains = State.range(0) != 0;
  Detector D(Opts);
  Tid T0 = D.newRootGoroutine();
  for (int I = 0; I < 6; ++I)
    D.pushFrame(T0, D.makeFrame("frame" + std::to_string(I), "f.go",
                                static_cast<uint32_t>(I)));
  Addr A = 0x300;
  for (auto _ : State) {
    D.onWrite(T0, A);
    ++A; // Fresh cells so the chain copy happens every time.
  }
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(Opts.KeepChains ? "chains-kept" : "chains-dropped");
}
BENCHMARK(BM_AccessWithChains)->Arg(1)->Arg(0);

/// DESIGN.md ablation 2: FastTrack adaptive epochs vs always-full vector
/// clocks, on a read-mostly mixed workload (the case epochs optimize).
static void BM_EpochsVsFullVc(benchmark::State &State) {
  DetectorOptions Opts;
  Opts.EpochOptimization = State.range(0) != 0;
  Detector D(Opts);
  Tid T0 = D.newRootGoroutine();
  Tid T1 = D.fork(T0);
  SyncId M = D.newSyncVar("m");
  bool Turn = false;
  for (auto _ : State) {
    Tid T = Turn ? T0 : T1;
    Turn = !Turn;
    D.acquire(T, M);
    for (Addr A = 0x600; A < 0x610; ++A)
      D.onRead(T, A);
    D.onWrite(T, 0x600);
    D.release(T, M);
  }
  State.SetItemsProcessed(State.iterations() * 17);
  State.SetLabel(Opts.EpochOptimization ? "fasttrack-epochs" : "full-vc");
}
BENCHMARK(BM_EpochsVsFullVc)->Arg(1)->Arg(0);

//===----------------------------------------------------------------------===//
// Lock sets
//===----------------------------------------------------------------------===//

static void BM_LockSetInternAndIntersect(benchmark::State &State) {
  LockSetRegistry R;
  LockSetId A = R.intern({1, 2, 3, 4, 5});
  LockSetId B = R.intern({2, 4, 6, 8});
  for (auto _ : State) {
    benchmark::DoNotOptimize(R.intersect(A, B)); // Memoized after run 1.
    benchmark::DoNotOptimize(R.withLock(A, 9));
    benchmark::DoNotOptimize(R.withoutLock(A, 1));
  }
}
BENCHMARK(BM_LockSetInternAndIntersect);

/// Full Eraser tracking on a lock-protected workload.
static void BM_EraserProtectedAccesses(benchmark::State &State) {
  DetectorOptions Opts;
  Opts.Mode = DetectMode::LockSetOnly;
  Detector D(Opts);
  Tid T0 = D.newRootGoroutine();
  Tid T1 = D.fork(T0);
  SyncId M = D.newSyncVar("m");
  bool Turn = false;
  for (auto _ : State) {
    Tid T = Turn ? T0 : T1;
    Turn = !Turn;
    D.lockAcquired(T, M, true);
    D.onWrite(T, 0x400);
    D.lockReleased(T, M, true);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_EraserProtectedAccesses);

//===----------------------------------------------------------------------===//
// Pipeline fingerprinting (§3.3.1)
//===----------------------------------------------------------------------===//

/// Per-access cost multiplier: an uninstrumented store loop vs the same
/// loop with each store reported to the detector — the isolated analogue
/// of TSan's "2x-20x" per-access tax (§3.1 / §1).
static void BM_InstrumentedVsPlainWrite(benchmark::State &State) {
  bool Instrumented = State.range(0) != 0;
  Detector D;
  Tid T0 = D.newRootGoroutine();
  std::vector<int> Plain(1024, 0);
  Addr Base = 0x1000;
  size_t I = 0;
  for (auto _ : State) {
    size_t Slot = I++ & 1023;
    Plain[Slot] = static_cast<int>(I);
    benchmark::DoNotOptimize(Plain[Slot]);
    if (Instrumented)
      D.onWrite(T0, Base + Slot);
  }
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(Instrumented ? "instrumented" : "plain");
}
BENCHMARK(BM_InstrumentedVsPlainWrite)->Arg(0)->Arg(1);

static void BM_Fingerprint(benchmark::State &State) {
  pipeline::NameChain A{"service7.file2.Handler", "pkg.cache.Get",
                        "pkg.cache.refill"};
  pipeline::NameChain B{"service7.file4.Worker", "pkg.cache.Get"};
  for (auto _ : State)
    benchmark::DoNotOptimize(pipeline::fingerprintChains(A, B));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Fingerprint);

//===----------------------------------------------------------------------===//
// Min-clock shadow GC
//===----------------------------------------------------------------------===//

namespace {

/// The worker-pool round shape the GC exists for: fork a goroutine that
/// touches a batch of fresh addresses, finish, join, read the results.
/// Without GC every round leaves a dead clock and dead cells behind
/// forever. 27 detector events per round, access-dominated like real
/// instrumented workloads (§3.5 prices the overhead per access).
constexpr int EventsPerRound = 27;

void runWorkerRounds(race::Detector &D, Tid T0, int Rounds, Addr Base) {
  for (int I = 0; I < Rounds; ++I) {
    Tid W = D.fork(T0);
    Addr First = Base + static_cast<Addr>(I) * 8;
    for (Addr A = First; A < First + 8; ++A) {
      D.onWrite(W, A);
      D.onRead(W, A);
    }
    D.finish(W);
    D.join(T0, W);
    for (Addr A = First; A < First + 8; ++A)
      D.onRead(T0, A);
  }
}

} // namespace

/// GC ablation: the same long-running round workload with reclamation on
/// vs off — throughput AND the live footprint at the end.
static void BM_GcOnVsOffWorkerRounds(benchmark::State &State) {
  DetectorOptions Opts;
  Opts.Gc = State.range(0) ? GcMode::MinClock : GcMode::Off;
  uint64_t Events = 0;
  for (auto _ : State) {
    Detector D(Opts);
    Tid T0 = D.newRootGoroutine();
    runWorkerRounds(D, T0, 512, 0x10000);
    Events += 512 * EventsPerRound;
    benchmark::DoNotOptimize(D.footprint().VcWords);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
  State.SetLabel(Opts.Gc == GcMode::MinClock ? "gc-on" : "gc-off");
}
BENCHMARK(BM_GcOnVsOffWorkerRounds)->Arg(1)->Arg(0);

/// Cost of one forced full collection over a mostly-dominated heap.
static void BM_GcCollectionSweep(benchmark::State &State) {
  DetectorOptions Opts;
  Opts.GcIntervalEvents = 0; // Only explicit gcNow() collects.
  Detector D(Opts);
  Tid T0 = D.newRootGoroutine();
  Addr Base = 0x40000;
  for (auto _ : State) {
    State.PauseTiming();
    runWorkerRounds(D, T0, 64, Base);
    Base += 64;
    State.ResumeTiming();
    D.gcNow();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_GcCollectionSweep);

BENCHMARK_MAIN();
