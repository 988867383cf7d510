//===- tests/AllocCountTest.cpp - Heap allocations on the access path -----===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Exact heap-allocation counts for the detector's hot paths: a warm
// instrumented access, a GC collection and a lock event allocate nothing,
// and a whole run on a warm thread allocates at most two blocks.
// A count cannot flake the way a clock does, and it fails on the commit
// that regresses it. This binary replaces the global operator new, so it
// is a test executable of its own.
//
// The names are 16 characters or longer on purpose: they do not fit the
// small-string buffer, so any name built per access would allocate.
//
//===----------------------------------------------------------------------===//

#include "rt/GoMap.h"
#include "rt/GoSlice.h"
#include "rt/Instr.h"
#include "rt/Runtime.h"
#include "rt/Sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};
uint64_t allocations() {
  return Allocations.load(std::memory_order_relaxed);
}
} // namespace

void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace grs;
using namespace grs::rt;

namespace {

/// One goroutine and no preemption: the counts below are exact.
RunOptions quietOptions() {
  RunOptions Opts;
  Opts.Seed = 1;
  Opts.PreemptProbability = 0;
  Opts.Detector.Mode = race::DetectMode::HappensBefore;
  return Opts;
}

// The thread's run arena hands a Runtime the previous one's detector,
// reset in place, and its goroutine records with their stacks, so a warm
// run refills no container: an empty run, and a run that spawns eight
// goroutines.
TEST(AllocCount, WarmRunsAllocateAtMostTwo) {
  const std::string Name = "a-goroutine-with-a-long-name";
  for (int Spawns : {0, 8}) {
    auto Run = [&] {
      Runtime RT(quietOptions());
      return RT.run([&] {
        for (int I = 0; I < Spawns; ++I)
          go(Name, [] { gosched(); });
      });
    };
    ASSERT_TRUE(Run().clean()); // Warms the arena.
    uint64_t Allocs0 = allocations();
    RunResult R = Run();
    uint64_t Allocs = allocations() - Allocs0;
    ASSERT_TRUE(R.clean());
    EXPECT_LE(Allocs, 2u) << Spawns << " spawns";
  }
}

TEST(AllocCount, GcRetireAndRebuildAllocateNothingPerCell) {
  // 1,024 elements written in 16 rounds; every 4,096 events a collection
  // retires all 1,025 cells (elements and meta), and the next round
  // rebuilds them from the residue. Past the first round, at most one
  // allocation per collection is allowed.
  constexpr size_t Len = 1024;
  Runtime RT(quietOptions());
  uint64_t Allocs = 0, Collections = 0;
  RunResult R = RT.run([&] {
    auto S = GoSlice<int>::make("a-slice-with-a-long-name", Len);
    auto Round = [&](int Value) {
      for (size_t I = 0; I < Len; ++I)
        S.set(I, Value);
    };
    Round(0);
    uint64_t Allocs0 = allocations();
    uint64_t Collections0 = RT.det().stats().GcRuns;
    for (int Value = 1; Value < 16; ++Value)
      Round(Value);
    Allocs = allocations() - Allocs0;
    Collections = RT.det().stats().GcRuns - Collections0;
  });
  ASSERT_TRUE(R.clean());
  EXPECT_GT(Collections, 0u);
  EXPECT_LE(Allocs, Collections);
  // The same decisions as the node-map table made: these are the values
  // it read for this run.
  const race::DetectorStats &St = RT.det().stats();
  EXPECT_EQ(St.Reads + St.Writes, 2 * 16 * Len);
  EXPECT_EQ(St.SameEpochFastPath, 24567u);
  EXPECT_EQ(St.GcRuns, 8u);
  EXPECT_EQ(St.GcCellsRetired, 8200u);
}

TEST(AllocCount, WarmMutexLockUnlockAllocatesNothing) {
  Runtime RT(quietOptions());
  uint64_t Allocs = ~0ULL;
  RunResult R = RT.run([&] {
    Mutex Mu("a-mutex-with-a-long-name");
    Mu.lock(); // Warm-up: the first transitions are memoized here.
    Mu.unlock();
    uint64_t Allocs0 = allocations();
    for (int I = 0; I < 512; ++I) {
      Mu.lock();
      Mu.unlock();
    }
    Allocs = allocations() - Allocs0;
  });
  ASSERT_TRUE(R.clean());
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocCount, WarmMapAndSharedAccessesAllocateNothing) {
  // Fewer than 4,096 events in all, so no collection runs: this counts
  // the access path alone.
  constexpr int Keys = 64, Rounds = 8;
  Runtime RT(quietOptions());
  uint64_t Allocs = ~0ULL, Accesses = 0;
  RunResult R = RT.run([&] {
    GoMap<int, int> M("a-map-with-a-long-name");
    Shared<int> X("a-shared-with-a-long-name", 0);
    for (int K = 0; K < Keys; ++K)
      M.set(K, K);
    for (int K = 0; K < Keys; ++K)
      X.store(X.load() + M.get(K));
    uint64_t Accesses0 = RT.det().stats().Reads + RT.det().stats().Writes;
    uint64_t Allocs0 = allocations();
    for (int Round = 0; Round < Rounds; ++Round)
      for (int K = 0; K < Keys; ++K) {
        M.set(K, M.get(K) + 1);
        X.store(X.load() + 1);
      }
    Allocs = allocations() - Allocs0;
    Accesses =
        RT.det().stats().Reads + RT.det().stats().Writes - Accesses0;
  });
  ASSERT_TRUE(R.clean());
  EXPECT_EQ(Accesses, 6u * Keys * Rounds);
  EXPECT_EQ(RT.det().stats().GcRuns, 0u);
  EXPECT_EQ(Allocs, 0u);
}

} // namespace
