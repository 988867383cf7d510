//===- tests/RuntimeTest.cpp - Runtime scheduling and lifecycle tests -----===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "rt/Channel.h"
#include "rt/Instr.h"
#include "rt/Runtime.h"
#include "rt/Sync.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>

using namespace grs;
using namespace grs::rt;

namespace {

/// The address of a 16-byte-aligned local in a fresh frame. The compiler
/// places it by assuming the ABI's stack alignment at the call, so a
/// misaligned fiber stack shows up here.
[[gnu::noinline]] uintptr_t alignedLocalAddress() {
  alignas(16) volatile char Local[16];
  Local[0] = 0;
  return reinterpret_cast<uintptr_t>(&Local[0]);
}

/// 1/3 in the current SSE rounding mode (volatile, so divided at run time).
double oneThird() {
  volatile double One = 1.0, Three = 3.0;
  return One / Three;
}

/// Recurses through \p Depth + 1 frames of about 1 KiB each, counts itself
/// into \p AtBottom and yields there until \p Expected goroutines have
/// arrived, then returns the sum of the bytes every frame wrote before the
/// yields and re-reads after them.
[[gnu::noinline]] uint64_t deepThenYield(int Depth, int &AtBottom,
                                         int Expected) {
  volatile unsigned char Frame[1024];
  Frame[0] = static_cast<unsigned char>(Depth);
  Frame[sizeof(Frame) - 1] = static_cast<unsigned char>(Depth);
  uint64_t Below = 0;
  if (Depth > 0) {
    Below = deepThenYield(Depth - 1, AtBottom, Expected);
  } else {
    ++AtBottom;
    do
      gosched();
    while (AtBottom < Expected);
  }
  return Below + Frame[0] + Frame[sizeof(Frame) - 1];
}

} // namespace

TEST(Runtime, MainRunsToCompletion) {
  Runtime RT(withSeed(1));
  bool Ran = false;
  RunResult Result = RT.run([&] { Ran = true; });
  EXPECT_TRUE(Ran);
  EXPECT_TRUE(Result.MainFinished);
  EXPECT_TRUE(Result.clean());
}

TEST(Runtime, GoroutinesAllRun) {
  Runtime RT(withSeed(2));
  int Counter = 0; // Plain int: not instrumented, single-OS-thread safe.
  RunResult Result = RT.run([&] {
    WaitGroup Wg;
    for (int I = 0; I < 10; ++I) {
      Wg.add(1);
      go("worker", [&] {
        ++Counter;
        Wg.done();
      });
    }
    Wg.wait();
  });
  EXPECT_EQ(Counter, 10);
  EXPECT_TRUE(Result.MainFinished);
  EXPECT_EQ(Result.RaceCount, 0u);
}

TEST(Runtime, SpawnHasHappensBeforeEdge) {
  Runtime RT(withSeed(3));
  RunResult Result = RT.run([&] {
    Shared<int> X("x", 0);
    X = 41; // Write before spawn...
    WaitGroup Wg;
    Wg.add(1);
    go("reader", [&] {
      EXPECT_EQ(X.load(), 41); // ...is visible and race-free in the child.
      Wg.done();
    });
    Wg.wait();
  });
  EXPECT_EQ(Result.RaceCount, 0u);
}

TEST(Runtime, UnsynchronizedCounterRaces) {
  Runtime RT(withSeed(4));
  RunResult Result = RT.run([&] {
    Shared<int> Counter("counter", 0);
    WaitGroup Wg;
    for (int I = 0; I < 4; ++I) {
      Wg.add(1);
      go("incrementer", [&] {
        Counter = Counter.load() + 1;
        Wg.done();
      });
    }
    Wg.wait();
  });
  EXPECT_GT(Result.RaceCount, 0u);
}

TEST(Runtime, MutexProtectedCounterDoesNotRace) {
  Runtime RT(withSeed(5));
  RunResult Result = RT.run([&] {
    Shared<int> Counter("counter", 0);
    Mutex Mu("mu");
    WaitGroup Wg;
    for (int I = 0; I < 8; ++I) {
      Wg.add(1);
      go("incrementer", [&] {
        Mu.lock();
        Counter = Counter.load() + 1;
        Mu.unlock();
        Wg.done();
      });
    }
    Wg.wait();
    EXPECT_EQ(Counter.load(), 8);
  });
  EXPECT_EQ(Result.RaceCount, 0u);
  EXPECT_TRUE(Result.clean());
}

TEST(Runtime, DeadlockIsDetected) {
  Runtime RT(withSeed(6));
  RunResult Result = RT.run([&] {
    Chan<int> Ch(0, "never");
    Ch.recv(); // Nobody will ever send: Go's fatal deadlock.
  });
  EXPECT_TRUE(Result.Deadlocked);
  EXPECT_FALSE(Result.MainFinished);
}

TEST(Runtime, LeakedGoroutineIsReported) {
  Runtime RT(withSeed(7));
  RunResult Result = RT.run([&] {
    auto Ch = std::make_shared<Chan<int>>(0, "leaky");
    go("leaker", [Ch] { Ch->send(1); }); // No receiver, ever.
  });
  EXPECT_TRUE(Result.MainFinished);
  ASSERT_EQ(Result.LeakedGoroutines.size(), 1u);
  EXPECT_NE(Result.LeakedGoroutines[0].find("leaker"), std::string::npos);
}

TEST(Runtime, PanicIsRecordedAndIsolated) {
  Runtime RT(withSeed(8));
  RunResult Result = RT.run([&] {
    WaitGroup Wg;
    Wg.add(1);
    go("panicker", [&] {
      Wg.done();
      Runtime::current().panicNow("boom");
    });
    Wg.wait();
  });
  EXPECT_TRUE(Result.MainFinished);
  ASSERT_EQ(Result.Panics.size(), 1u);
  EXPECT_NE(Result.Panics[0].find("boom"), std::string::npos);
}

TEST(Runtime, DeterministicPerSeed) {
  auto CountSteps = [](uint64_t Seed) {
    Runtime RT(withSeed(Seed));
    RunResult Result = RT.run([&] {
      Shared<int> X("x", 0);
      WaitGroup Wg;
      for (int I = 0; I < 4; ++I) {
        Wg.add(1);
        go("w", [&] {
          X = X.load() + 1;
          Wg.done();
        });
      }
      Wg.wait();
    });
    return Result.Steps;
  };
  EXPECT_EQ(CountSteps(42), CountSteps(42));
  // Different seeds typically schedule differently (not guaranteed for
  // any single pair, but 42 vs 43 diverge for this program).
  EXPECT_NE(CountSteps(42), CountSteps(43));
}

TEST(Runtime, StepLimitStopsLivelock) {
  RunOptions Opts = withSeed(9);
  Opts.MaxSteps = 2000;
  Runtime RT(Opts);
  RunResult Result = RT.run([&] {
    for (;;)
      gosched();
  });
  EXPECT_TRUE(Result.StepLimitHit);
  EXPECT_FALSE(Result.MainFinished);
}

TEST(Runtime, VirtualTimersFireWhenIdle) {
  Runtime RT(withSeed(10));
  bool Fired = false;
  RunResult Result = RT.run([&] {
    Runtime &Inner = Runtime::current();
    uint64_t Deadline = Inner.stepCount() + 500;
    Inner.sleepUntilStep(Deadline);
    Fired = Inner.stepCount() >= Deadline;
  });
  EXPECT_TRUE(Fired);
  EXPECT_TRUE(Result.MainFinished);
}

//===----------------------------------------------------------------------===//
// The fiber switch's contract (DESIGN.md §16)
//===----------------------------------------------------------------------===//

TEST(Runtime, FibersKeepTheAbiStackAlignment) {
  Runtime RT(withSeed(11));
  uintptr_t MainLocal = 1, GoLocal = 1;
  RunResult Result = RT.run([&] {
    MainLocal = alignedLocalAddress();
    WaitGroup Wg;
    Wg.add(1);
    go("aligned", [&] {
      GoLocal = alignedLocalAddress();
      Wg.done();
    });
    Wg.wait();
  });
  EXPECT_TRUE(Result.clean());
  EXPECT_EQ(MainLocal % 16, 0u);
  EXPECT_EQ(GoLocal % 16, 0u);
}

TEST(Runtime, FloatingPointControlStateIsPerGoroutine) {
  // As with glibc's swapcontext: each goroutine keeps its own rounding
  // mode (x87 control word and MXCSR), and the caller's survives run().
  const int CallerMode = std::fegetround();
  ASSERT_EQ(CallerMode, FE_TONEAREST);
  const double Nearest = oneThird();
  int ModeInB = -1, ModeInAAfter = -1;
  double ThirdInB = 0, ThirdInAAfter = 0;
  Runtime RT(withSeed(12));
  RunResult Result = RT.run([&] {
    bool ASet = false, BRead = false;
    WaitGroup Wg;
    Wg.add(2);
    go("a", [&] {
      std::fesetround(FE_UPWARD);
      ASet = true;
      while (!BRead)
        gosched();
      ModeInAAfter = std::fegetround();
      ThirdInAAfter = oneThird();
      Wg.done();
    });
    go("b", [&] {
      while (!ASet)
        gosched();
      ModeInB = std::fegetround();
      ThirdInB = oneThird();
      BRead = true;
      Wg.done();
    });
    Wg.wait();
  });
  EXPECT_TRUE(Result.clean());
  EXPECT_EQ(ModeInB, FE_TONEAREST);
  EXPECT_EQ(ThirdInB, Nearest);
  EXPECT_EQ(ModeInAAfter, FE_UPWARD);
  EXPECT_GT(ThirdInAAfter, Nearest);
  EXPECT_EQ(std::fegetround(), CallerMode);
  EXPECT_EQ(oneThird(), Nearest);
}

TEST(Runtime, DeepStacksSurviveAYieldAtTheBottom) {
  // Two goroutines each recurse through ~200 KiB of a 256 KiB stack and
  // yield there until both are suspended that deep at once.
  ASSERT_EQ(RunOptions().StackBytes, 256u * 1024);
  Runtime RT(withSeed(13));
  uint64_t SumA = 0, SumB = 0;
  RunResult Result = RT.run([&] {
    int AtBottom = 0;
    WaitGroup Wg;
    Wg.add(2);
    go("deep-a", [&] {
      SumA = deepThenYield(199, AtBottom, 2);
      Wg.done();
    });
    go("deep-b", [&] {
      SumB = deepThenYield(199, AtBottom, 2);
      Wg.done();
    });
    Wg.wait();
  });
  EXPECT_TRUE(Result.clean());
  const uint64_t Expected = 2 * (199 * 200 / 2);
  EXPECT_EQ(SumA, Expected);
  EXPECT_EQ(SumB, Expected);
}
