//===- tests/CoverageTest.cpp - Edge cases and soak tests ------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Edge-case coverage for paths the feature suites don't reach, plus a
// soak test wiring many primitives together in one program.
//
//===----------------------------------------------------------------------===//

#include "corpus/ScheduleDeps.h"
#include "rt/Channel.h"
#include "rt/Context.h"
#include "rt/GoMap.h"
#include "rt/GoSlice.h"
#include "rt/Instr.h"
#include "rt/Runtime.h"
#include "rt/Select.h"
#include "rt/Sync.h"
#include "rt/Time.h"
#include "sweep/Adaptive.h"

#include <gtest/gtest.h>

#include <set>

using namespace grs;
using namespace grs::rt;

namespace {

RunResult runBody(uint64_t Seed, std::function<void()> Body) {
  Runtime RT(withSeed(Seed));
  return RT.run(std::move(Body));
}

//===----------------------------------------------------------------------===//
// Runtime edges
//===----------------------------------------------------------------------===//

TEST(Edges, LineNumbersFlowIntoReports) {
  Runtime RT(withSeed(1));
  RT.run([] {
    auto X = std::make_shared<Shared<int>>("x", 0);
    WaitGroup Wg;
    Wg.add(1);
    go("writer", [X, &Wg] {
      FuncScope Fn("writerFn", "file.go", 10);
      atLine(17);
      X->store(1);
      Wg.done();
    });
    FuncScope Fn("mainFn", "file.go", 30);
    atLine(35);
    X->store(2);
    Wg.wait();
  });
  ASSERT_FALSE(RT.det().reports().empty());
  const race::RaceReport &R = RT.det().reports()[0];
  // One side carries line 17, the other line 35 (order depends on who
  // raced second).
  uint32_t LineA = R.Previous.Chain.back().Line;
  uint32_t LineB = R.Current.Chain.back().Line;
  EXPECT_TRUE((LineA == 17 && LineB == 35) || (LineA == 35 && LineB == 17))
      << LineA << " / " << LineB;
}

TEST(Edges, GoroutineNamesAppearInChains) {
  Runtime RT(withSeed(2));
  RT.run([] {
    auto X = std::make_shared<Shared<int>>("x", 0);
    go("my-special-worker", [X] { X->store(1); });
    X->store(2);
  });
  ASSERT_FALSE(RT.det().reports().empty());
  std::string Report =
      race::reportToString(RT.det().interner(), RT.det().reports()[0]);
  EXPECT_NE(Report.find("my-special-worker"), std::string::npos);
}

TEST(Edges, NestedGoroutinesInheritHappensBefore) {
  RunResult Result = runBody(3, [&] {
    Shared<int> X("x", 0);
    WaitGroup Wg;
    Wg.add(1);
    X = 1;
    go("outer", [&] {
      EXPECT_EQ(X.load(), 1);
      go("inner", [&] {
        EXPECT_EQ(X.load(), 1); // Grandchild sees pre-spawn writes.
        Wg.done();
      });
    });
    Wg.wait();
  });
  EXPECT_EQ(Result.RaceCount, 0u);
}

TEST(Edges, ManyGoroutinesScale) {
  RunResult Result = runBody(4, [&] {
    WaitGroup Wg;
    Mutex Mu;
    Shared<int> Total("total", 0);
    for (int I = 0; I < 200; ++I) {
      Wg.add(1);
      go("worker", [&] {
        Mu.lock();
        Total = Total.load() + 1;
        Mu.unlock();
        Wg.done();
      });
    }
    Wg.wait();
    EXPECT_EQ(Total.load(), 200);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(Edges, ZeroPreemptProbabilityStillCompletes) {
  RunOptions Opts = withSeed(5);
  Opts.PreemptProbability = 0.0; // Switches only at blocking points.
  Runtime RT(Opts);
  int Done = 0;
  RunResult Result = RT.run([&] {
    Chan<int> Ch(0);
    go("responder", [&] { Ch.send(9); });
    Done = Ch.recvValue();
  });
  EXPECT_EQ(Done, 9);
  EXPECT_TRUE(Result.MainFinished);
}

//===----------------------------------------------------------------------===//
// Channel / select edges
//===----------------------------------------------------------------------===//

TEST(Edges, SelectDefaultWithReadyArmPrefersArm) {
  RunResult Result = runBody(6, [&] {
    Chan<int> A(1);
    A.send(1);
    bool TookDefault = false;
    Selector Sel;
    Sel.onRecv<int>(A, [](int, bool) {});
    Sel.onDefault([&] { TookDefault = true; });
    EXPECT_EQ(Sel.run(), 0); // Ready arm wins over default.
    EXPECT_FALSE(TookDefault);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(Edges, SelectOnClosedChannelFiresImmediately) {
  RunResult Result = runBody(7, [&] {
    Chan<int> A(0);
    A.close();
    bool SawClosed = false;
    Selector Sel;
    Sel.onRecv<int>(A, [&](int V, bool Ok) {
      SawClosed = !Ok && V == 0;
    });
    EXPECT_EQ(Sel.run(), 0);
    EXPECT_TRUE(SawClosed);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(Edges, MultipleReceiversDrainFairly) {
  RunResult Result = runBody(8, [&] {
    Chan<int> Work(4, "work");
    GoAtomic<int> Consumed("consumed", 0);
    WaitGroup Wg;
    for (int W = 0; W < 3; ++W) {
      Wg.add(1);
      go("consumer", [&] {
        for (;;) {
          auto [V, Ok] = Work.recv();
          if (!Ok)
            break;
          (void)V;
          Consumed.add(1);
        }
        Wg.done();
      });
    }
    for (int I = 0; I < 12; ++I)
      Work.send(I);
    Work.close();
    Wg.wait();
    EXPECT_EQ(Consumed.load(), 12);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(Edges, ContextCancelBeforeTimerWins) {
  RunResult Result = runBody(9, [&] {
    auto [Ctx, Cancel] = Context::withTimeout(Context::background(), 500);
    Cancel(); // Explicit cancel long before the deadline.
    auto [V, Ok] = Ctx.doneChan().recv();
    (void)V;
    EXPECT_FALSE(Ok);
    EXPECT_EQ(Ctx.err(), "context canceled");
  });
  EXPECT_TRUE(Result.Panics.empty()); // Timer must not double-close.
  EXPECT_TRUE(Result.MainFinished);
}

//===----------------------------------------------------------------------===//
// GoSlice / GoMap edges
//===----------------------------------------------------------------------===//

TEST(Edges, SliceOfSliceWritesPropagate) {
  RunResult Result = runBody(10, [&] {
    auto S = GoSlice<int>::make("s", 6);
    for (int I = 0; I < 6; ++I)
      S.set(static_cast<size_t>(I), I);
    auto Mid = S.slice(2, 5);
    auto MidMid = Mid.slice(1, 3); // s[3:5]
    MidMid.set(0, 99);
    EXPECT_EQ(S.get(3), 99);
    EXPECT_EQ(Mid.get(1), 99);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(Edges, AppendWithinCapacityIsVisibleToAliases) {
  RunResult Result = runBody(11, [&] {
    auto S = GoSlice<int>::make("s", 2, 8);
    S.set(0, 1);
    S.set(1, 2);
    GoSlice<int> Alias(S);
    S.append(3); // In-place: shared backing, alias len unchanged.
    EXPECT_EQ(S.len(), 3u);
    EXPECT_EQ(Alias.len(), 2u);
    // The classic Go gotcha: the alias CAN see the new element by
    // re-slicing within the shared capacity.
    GoSlice<int> Extended = Alias.slice(0, 2);
    EXPECT_EQ(Extended.get(1), 2);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(Edges, MapDeleteThenReinsertKeepsStableShadowing) {
  RunResult Result = runBody(12, [&] {
    GoMap<std::string, int> M("m");
    M.set("k", 1);
    M.erase("k");
    EXPECT_FALSE(M.contains("k"));
    M.set("k", 2); // Re-insert after delete: fresh epoch chain, no
                   // stale-shadow false positive.
    EXPECT_EQ(M.get("k"), 2);
  });
  EXPECT_EQ(Result.RaceCount, 0u);
}

TEST(Edges, MapIterationRacesWithConcurrentInsert) {
  size_t Detections = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RunResult Result = runBody(Seed, [&] {
      auto M = std::make_shared<GoMap<int, int>>("m");
      M->set(1, 1);
      WaitGroup Wg;
      Wg.add(2);
      go("ranger", [M, &Wg] {
        int Sum = 0;
        M->forEach([&Sum](int, int V) { Sum += V; });
        (void)Sum;
        Wg.done();
      });
      go("inserter", [M, &Wg] {
        M->set(2, 2);
        Wg.done();
      });
      Wg.wait();
    });
    Detections += Result.RaceCount > 0;
  }
  EXPECT_GT(Detections, 5u);
}

//===----------------------------------------------------------------------===//
// Schedule-dependence registry coverage
//
// Every corpus::scheduleDeps() row carries the exact §3.3.1 fingerprints
// its racy pair is expected to produce and a seed budget measured to
// reach them. Sweeping each row pins three things at once: the needle
// bodies actually manifest (no silently-dead benchmark rows), the
// fingerprints are stable (goroutine-name chains, so any rename breaks
// loudly here rather than quietly skewing AdaptiveFloor), and no row
// produces fingerprints beyond its declared set.
//===----------------------------------------------------------------------===//

TEST(ScheduleDepCoverage, EveryRowManifestsExactlyItsExpectedFingerprints) {
  for (const corpus::ScheduleDep &Dep : corpus::scheduleDeps()) {
    ASSERT_TRUE(Dep.Run) << Dep.Id << ": no runner";
    sweep::AdaptiveOptions A;
    A.FirstSeed = 1;
    A.NumRuns = Dep.CoverageSeeds;
    A.ExploitWeight = 0.0; // Uniform sweep: the budget was measured so.
    A.Body = Dep.Run;
    sweep::AdaptiveResult R = sweep::adaptive(A);

    EXPECT_GE(R.Sweep.SeedsWithRaces, 1u)
        << Dep.Id << ": never manifested in " << Dep.CoverageSeeds
        << " seeds";
    std::set<uint64_t> Observed;
    for (const auto &[Fp, Finding] : R.Sweep.Findings)
      Observed.insert(Fp);
    std::set<uint64_t> Expected(Dep.ExpectedFps.begin(),
                                Dep.ExpectedFps.end());
    EXPECT_EQ(Observed, Expected) << Dep.Id;
  }
}

TEST(ScheduleDepCoverage, AlwaysRowsManifestOnEverySeed) {
  for (const corpus::ScheduleDep &Dep : corpus::scheduleDeps()) {
    if (!Dep.Always)
      continue;
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      rt::RunOptions Opts;
      Opts.Seed = Seed;
      EXPECT_GT(Dep.Run(Opts).RaceCount, 0u)
          << Dep.Id << " missed on seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// Soak: a microservice-shaped program exercising most primitives at once
//===----------------------------------------------------------------------===//

class SoakSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoakSweep, KitchenSinkServiceRunsClean) {
  RunResult Result = runBody(GetParam(), [&] {
    // A request pipeline: producer -> workers -> aggregator, with a
    // locked cache, atomic metrics, a context deadline, and a ticker.
    auto Cache = std::make_shared<GoMap<int, int>>("cache");
    auto CacheMu = std::make_shared<Mutex>("cacheMu");
    auto Requests = std::make_shared<Chan<int>>(4, "requests");
    auto Replies = std::make_shared<Chan<int>>(4, "replies");
    auto Metrics = std::make_shared<GoAtomic<int>>("metrics", 0);
    auto [Ctx, Cancel] = Context::withTimeout(Context::background(), 5000);

    WaitGroup Workers;
    for (int W = 0; W < 3; ++W) {
      Workers.add(1);
      go("worker", [=, &Workers] {
        for (;;) {
          auto [Req, Ok] = Requests->recv();
          if (!Ok)
            break;
          CacheMu->lock();
          auto [Cached, Hit] = Cache->getOk(Req);
          if (!Hit) {
            Cached = Req * 2;
            Cache->set(Req, Cached);
          }
          CacheMu->unlock();
          Metrics->add(1);
          Replies->send(Cached);
        }
        Workers.done();
      });
    }

    go("producer", [Requests] {
      for (int I = 0; I < 10; ++I)
        Requests->send(I % 4); // Repeats: exercise cache hits.
      Requests->close();
    });

    int Total = 0;
    for (int I = 0; I < 10; ++I) {
      Selector Sel;
      bool GotReply = false;
      Sel.onRecv<int>(*Replies, [&](int V, bool) {
        Total += V;
        GotReply = true;
      });
      Sel.onRecv<Unit>(Ctx.doneChan(), [](Unit, bool) {});
      Sel.run();
      if (!GotReply)
        break; // Deadline exceeded (never expected here).
    }
    Workers.wait();
    Cancel();
    EXPECT_EQ(Metrics->load(), 10);
    EXPECT_GT(Total, 0);
  });
  EXPECT_EQ(Result.RaceCount, 0u)
      << "seed " << GetParam() << " raced";
  EXPECT_TRUE(Result.MainFinished);
  EXPECT_FALSE(Result.Deadlocked);
  EXPECT_TRUE(Result.Panics.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakSweep,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
