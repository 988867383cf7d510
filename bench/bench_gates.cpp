//===- bench/bench_gates.cpp - Interleaved wall-clock ratio gates ---------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The three claims only a clock can check, each a ratio of two timed sides
// A and B:
//
//  * pool — a warm PoolHost run (the host already served the same spec,
//    so it reuses its workers) costs at most 3.0x the in-process
//    sweep::resilient run of that spec, and forks nothing;
//  * timeline — a sweep with a DISABLED obs::Timeline threaded through it
//    costs at most 10% more than the same sweep with none (the
//    null-handle contract, DESIGN.md §12);
//  * gc — the detector with min-clock shadow GC at its default interval
//    keeps at least 0.9x the event throughput of GC off on a long-running
//    worker-pool workload (DESIGN.md §13).
//
// Load drift on a shared host is what fails such gates, so each gate runs
// one untimed warm-up per side, then pairs that alternate which side runs
// first, and compares the best sample of each side. Every sample does at
// least ~20 ms of work, as a sum of chunks that alternate with the other
// side's chunks, so a burst of host noise lands on both sides of a pair.
// Every count and equality check lives in the ctest suite instead, where
// it cannot flake.
//
// Prints one JSON object on stdout; exits nonzero on any breach.
//
// Usage: bench_gates
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "pipeline/Sweep.h"
#include "race/Detector.h"
#include "rt/Instr.h"
#include "sweep/Pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace grs;

namespace {

/// The racy body the gates sweep: one spawn, two unsynchronized stores.
void racyBody() {
  auto X = std::make_shared<rt::Shared<int>>("x", 0);
  rt::Runtime &RT = rt::Runtime::current();
  RT.go("writer", [X] { X->store(1); });
  X->store(2);
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// One side of a gate: runs a chunk and returns its timed milliseconds.
using Side = std::function<double()>;

Side timed(std::function<void()> Work) {
  return [Work = std::move(Work)] {
    auto Start = std::chrono::steady_clock::now();
    Work();
    return msSince(Start);
  };
}

struct Gate {
  std::string Name;
  int Pairs = 0;
  double BestA = std::numeric_limits<double>::infinity();
  double BestB = std::numeric_limits<double>::infinity();
  double Value = 0.0;
  double Limit = 0.0;
  bool AtMost = true; ///< Value must be <= Limit (else >= Limit).
  bool Pass = false;
  std::string Extra; ///< More JSON members, pre-rendered.
};

/// Fills \p G's best-of-\p Pairs samples of \p A and \p B. A sample
/// sums \p Chunks chunks of its side; within a pair the two sides' chunks
/// alternate, A first on even pairs and B first on odd ones.
void interleave(Gate &G, const Side &A, const Side &B, int Pairs,
                int Chunks) {
  G.Pairs = Pairs;
  A();
  B();
  for (int P = 0; P < Pairs; ++P) {
    double SumA = 0.0, SumB = 0.0;
    for (int C = 0; C < Chunks; ++C) {
      if (P % 2 == 0) {
        SumA += A();
        SumB += B();
      } else {
        SumB += B();
        SumA += A();
      }
    }
    G.BestA = std::min(G.BestA, SumA);
    G.BestB = std::min(G.BestB, SumB);
  }
}

void judge(Gate &G, double Value, double Limit, bool AtMost) {
  G.Value = Value;
  G.Limit = Limit;
  G.AtMost = AtMost;
  G.Pass = AtMost ? Value <= Limit : Value >= Limit;
}

/// A: in-process sweep::resilient; B: the same spec on a warm PoolHost.
/// A chunk is one run of the 100-seed spec, a sample 100 of them.
Gate poolGate() {
  Gate G;
  G.Name = "pool_warm_over_inprocess_x";
  constexpr int Pairs = 7, Jobs = 100;
  sweep::ResilientOptions Base;
  Base.NumSeeds = 100;
  Base.Threads = 4;
  Base.MaxAttempts = 3;
  Base.RetryBackoffMicros = 0;
  Base.Body = corpus::hostBody(racyBody);

  sweep::PoolHostOptions HO;
  HO.Workers = Base.Threads;
  // Room in the job table and the append-only work ring for every run
  // below, at its full attempt budget, so none of them recycles (re-forks)
  // the workers.
  HO.MaxJobs = 2 + Pairs * Jobs;
  HO.RingEntries =
      static_cast<uint32_t>(HO.MaxJobs * Base.NumSeeds * Base.MaxAttempts);
  HO.Resolve = [Base](const uint8_t *, size_t,
                      sweep::ResilientOptions &Out) {
    Out = Base;
    return true;
  };
  sweep::PoolHost Host(std::move(HO));
  sweep::PoolRunRequest Job;
  Host.run(Job); // Forks the workers every later run reuses.

  uint64_t WarmSpawns = 0;
  interleave(G, timed([&Base] { sweep::resilient(Base); }), timed([&] {
               WarmSpawns += Host.run(Job).Stats.WorkerSpawns;
             }),
             Pairs, Jobs);
  Host.shutdown();
  judge(G, G.BestB / G.BestA, 3.0, /*AtMost=*/true);
  G.Pass = G.Pass && WarmSpawns == 0;
  G.Extra = ", \"warm_worker_spawns\": " + std::to_string(WarmSpawns);
  return G;
}

/// A: pipeline::sweep with no timeline; B: with a disabled one. A chunk
/// sweeps 1000 seeds, a sample 12 chunks. The 10% margin is the tightest
/// of the three, so this gate takes the most pairs.
Gate timelineGate() {
  Gate G;
  G.Name = "timeline_disabled_overhead_pct";
  pipeline::SweepOptions None;
  None.NumSeeds = 1000;
  obs::Timeline Off(/*Enabled=*/false);
  pipeline::SweepOptions Disabled = None;
  Disabled.Timeline = &Off;
  interleave(G, timed([&None] { pipeline::sweep(None, racyBody); }),
             timed([&Disabled] { pipeline::sweep(Disabled, racyBody); }),
             21, 12);
  judge(G, (G.BestB / G.BestA - 1.0) * 100.0, 10.0, /*AtMost=*/true);
  return G;
}

/// The worker-pool round shape the shadow GC exists for: fork a goroutine
/// that writes and reads 8 fresh addresses, finish, join, and re-read them
/// from the parent. 27 detector events a round, access-dominated.
void workerRounds(race::Detector &D, race::Tid T0, int Rounds) {
  for (int I = 0; I < Rounds; ++I) {
    race::Tid W = D.fork(T0);
    race::Addr First = 0x10000 + static_cast<race::Addr>(I) * 8;
    for (race::Addr A = First; A < First + 8; ++A) {
      D.onWrite(W, A);
      D.onRead(W, A);
    }
    D.finish(W);
    D.join(T0, W);
    for (race::Addr A = First; A < First + 8; ++A)
      D.onRead(T0, A);
  }
}

/// Times 4000 rounds on a fresh detector; only the rounds are timed, not
/// building or freeing the detector. Each sample starts from a trimmed
/// heap: GC-off grows its shadow state to ~64 MB, and a GC-off sample that
/// follows another would otherwise run on the pages its predecessor left
/// mapped, so the reading would depend on which side a pair ran first.
Side rounds(race::DetectorOptions Opts) {
  return [Opts] {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    race::Detector D(Opts);
    race::Tid T0 = D.newRootGoroutine();
    auto Start = std::chrono::steady_clock::now();
    workerRounds(D, T0, 4000);
    return msSince(Start);
  };
}

/// A: GC off; B: GC on at its default interval. Equal events, so the
/// throughput ratio on/off is the time ratio off/on. A sample is one
/// chunk of 4000 rounds.
Gate gcGate() {
  Gate G;
  G.Name = "gc_on_over_off_throughput_x";
  race::DetectorOptions Off;
  Off.Gc = race::GcMode::Off;
  race::DetectorOptions On;
  interleave(G, rounds(Off), rounds(On), 7, 1);
  judge(G, G.BestA / G.BestB, 0.9, /*AtMost=*/false);
  return G;
}

} // namespace

int main() {
#if defined(__GLIBC__)
  // Every run allocates and frees 256 KiB fiber stacks. Under glibc's
  // adaptive thresholds they are mmapped, or land at the heap's top and
  // are trimmed back on free, or neither, depending on what the process
  // allocated before; on a shared 4-vCPU host that moved a side's samples
  // by up to 8x between processes, and the two sides did not move
  // together. Fixed thresholds give both sides the same allocator.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  std::vector<Gate> Gates;
  if (sweep::pooledAvailable())
    Gates.push_back(poolGate());
  else
    std::fprintf(stderr, "bench_gates: no fork() + shared memory; pool gate "
                         "skipped\n");
  Gates.push_back(timelineGate());
  Gates.push_back(gcGate());

  bool Pass = true;
  std::printf("{\n  \"gates\": [\n");
  for (size_t I = 0; I < Gates.size(); ++I) {
    const Gate &G = Gates[I];
    Pass = Pass && G.Pass;
    std::printf("    {\"name\": \"%s\", \"pairs\": %d, \"best_a_ms\": %.3f, "
                "\"best_b_ms\": %.3f, \"value\": %.3f, \"%s\": %.1f, "
                "\"pass\": %s%s}%s\n",
                G.Name.c_str(), G.Pairs, G.BestA, G.BestB, G.Value,
                G.AtMost ? "max" : "min", G.Limit, G.Pass ? "true" : "false",
                G.Extra.c_str(), I + 1 < Gates.size() ? "," : "");
    if (!G.Pass)
      std::fprintf(stderr, "GATE BREACH: %s = %.3f (%s %.1f)\n",
                   G.Name.c_str(), G.Value, G.AtMost ? "max" : "min",
                   G.Limit);
  }
  std::printf("  ],\n  \"pass\": %s\n}\n", Pass ? "true" : "false");
  return Pass ? 0 : 1;
}
