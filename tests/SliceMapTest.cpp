//===- tests/SliceMapTest.cpp - GoSlice and GoMap semantics tests ----------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "rt/GoMap.h"
#include "rt/GoSlice.h"
#include "rt/Instr.h"
#include "rt/Runtime.h"
#include "rt/Sync.h"

#include <gtest/gtest.h>

using namespace grs;
using namespace grs::rt;

namespace {

RunResult runBody(uint64_t Seed, std::function<void()> Body) {
  Runtime RT(withSeed(Seed));
  return RT.run(std::move(Body));
}

//===----------------------------------------------------------------------===//
// GoSlice value/reference semantics (Observation 4's foundations)
//===----------------------------------------------------------------------===//

TEST(GoSlice, AppendGrowsAndIndexes) {
  RunResult Result = runBody(1, [&] {
    GoSlice<int> S("s");
    EXPECT_EQ(S.len(), 0u);
    for (int I = 0; I < 10; ++I)
      S.append(I * I);
    EXPECT_EQ(S.len(), 10u);
    for (size_t I = 0; I < 10; ++I)
      EXPECT_EQ(S.get(I), static_cast<int>(I * I));
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoSlice, CopySharesBackingButNotMeta) {
  // `s2 := s1` in Go: both see the same elements; appends to one do not
  // change the other's length.
  RunResult Result = runBody(2, [&] {
    auto S1 = GoSlice<int>::make("s1", 2, 8);
    S1.set(0, 10);
    S1.set(1, 20);
    GoSlice<int> S2(S1);
    S2.set(0, 99);
    EXPECT_EQ(S1.get(0), 99); // Shared backing array.
    S1.append(30);
    EXPECT_EQ(S1.len(), 3u);
    EXPECT_EQ(S2.len(), 2u); // Independent meta fields.
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoSlice, AppendBeyondCapacityDetachesAliases) {
  RunResult Result = runBody(3, [&] {
    auto S1 = GoSlice<int>::make("s1", 1, 1);
    S1.set(0, 5);
    GoSlice<int> S2(S1);
    S1.append(6); // Reallocates: S1 now has its own backing.
    S1.set(0, 7);
    EXPECT_EQ(S2.get(0), 5); // The alias kept the OLD array — Go's trap.
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoSlice, SubsliceSharesBacking) {
  RunResult Result = runBody(4, [&] {
    auto S = GoSlice<int>::make("s", 5);
    for (int I = 0; I < 5; ++I)
      S.set(static_cast<size_t>(I), I);
    GoSlice<int> Sub = S.slice(1, 4);
    EXPECT_EQ(Sub.len(), 3u);
    EXPECT_EQ(Sub.get(0), 1);
    Sub.set(0, 77);
    EXPECT_EQ(S.get(1), 77);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoSlice, OutOfRangePanics) {
  RunResult Result = runBody(5, [&] {
    auto S = GoSlice<int>::make("s", 2);
    S.get(5);
  });
  ASSERT_EQ(Result.Panics.size(), 1u);
  EXPECT_NE(Result.Panics[0].find("index out of range"), std::string::npos);
}

TEST(GoSlice, ConcurrentDisjointElementWritesAreRaceFree) {
  RunResult Result = runBody(6, [&] {
    auto S = std::make_shared<GoSlice<int>>(GoSlice<int>::make("s", 8));
    WaitGroup Wg;
    for (int W = 0; W < 4; ++W) {
      Wg.add(1);
      go("writer", [S, W, &Wg] {
        S->set(static_cast<size_t>(W * 2), W);
        S->set(static_cast<size_t>(W * 2 + 1), W);
        Wg.done();
      });
    }
    Wg.wait();
  });
  // Pre-sized slice, disjoint indices: the safe Go idiom stays clean.
  EXPECT_EQ(Result.RaceCount, 0u);
}

TEST(GoSlice, ConcurrentAppendsRaceOnMeta) {
  RunResult Result = runBody(7, [&] {
    auto S = std::make_shared<GoSlice<int>>(GoSlice<int>("s"));
    WaitGroup Wg;
    for (int W = 0; W < 3; ++W) {
      Wg.add(1);
      go("appender", [S, W, &Wg] {
        S->append(W);
        Wg.done();
      });
    }
    Wg.wait();
  });
  EXPECT_GT(Result.RaceCount, 0u);
}

// A racy append must stay a detected race, never C++ undefined behaviour:
// an append that resumes after a sibling filled the backing must not store
// past its end, so len never exceeds cap.
TEST(GoSlice, ConcurrentAppendsNeverOverrunTheBacking) {
  for (double Preempt : {0.2, 0.5, 0.95}) {
    for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
      RunOptions Opts = withSeed(Seed);
      Opts.PreemptProbability = Preempt;
      size_t Len = 0, Cap = 0;
      Runtime RT(Opts);
      RT.run([&] {
        auto S = std::make_shared<GoSlice<int>>(GoSlice<int>("s"));
        WaitGroup Wg;
        for (int W = 0; W < 3; ++W) {
          Wg.add(1);
          go("appender", [S, W, &Wg] {
            S->append(W);
            Wg.done();
          });
        }
        Wg.wait();
        Len = S->len();
        Cap = S->capacity();
      });
      ASSERT_LE(Len, Cap) << "seed " << Seed << " preempt " << Preempt;
    }
  }
}

TEST(GoSlice, CopyFromCopiesMinAndReadsBothSides) {
  RunResult Result = runBody(20, [&] {
    auto Src = GoSlice<int>::make("src", 5);
    for (int I = 0; I < 5; ++I)
      Src.set(static_cast<size_t>(I), I + 1);
    auto Dst = GoSlice<int>::make("dst", 3);
    EXPECT_EQ(Dst.copyFrom(Src), 3u);
    EXPECT_EQ(Dst.get(0), 1);
    EXPECT_EQ(Dst.get(2), 3);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoSlice, CopyFromRacesWithConcurrentSourceWrites) {
  size_t Detections = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RunResult Result = runBody(Seed, [&] {
      auto Src =
          std::make_shared<GoSlice<int>>(GoSlice<int>::make("src", 4));
      auto Dst =
          std::make_shared<GoSlice<int>>(GoSlice<int>::make("dst", 4));
      WaitGroup Wg;
      Wg.add(2);
      go("copier", [Src, Dst, &Wg] {
        Dst->copyFrom(*Src); // Reads src elements...
        Wg.done();
      });
      go("mutator", [Src, &Wg] {
        Src->set(2, 99); // ...while they are written.
        Wg.done();
      });
      Wg.wait();
    });
    Detections += Result.RaceCount > 0;
  }
  EXPECT_GT(Detections, 5u);
}

//===----------------------------------------------------------------------===//
// GoMap thread-unsafety modelling (Observation 5's foundations)
//===----------------------------------------------------------------------===//

TEST(GoMap, BasicOperationsAndZeroValue) {
  RunResult Result = runBody(8, [&] {
    GoMap<std::string, int> M("m");
    EXPECT_EQ(M.len(), 0u);
    M.set("a", 1);
    M.set("b", 2);
    EXPECT_EQ(M.len(), 2u);
    EXPECT_EQ(M.get("a"), 1);
    // §4.4 "error tolerance": a missing key silently yields the zero
    // value, no error.
    EXPECT_EQ(M.get("missing"), 0);
    auto [V, Ok] = M.getOk("missing");
    EXPECT_EQ(V, 0);
    EXPECT_FALSE(Ok);
    M.erase("a");
    EXPECT_FALSE(M.contains("a"));
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoMap, SequentialHeavyUseIsRaceFree) {
  RunResult Result = runBody(9, [&] {
    GoMap<int, int> M("m");
    for (int I = 0; I < 100; ++I)
      M.set(I, I);
    int Sum = 0;
    M.forEach([&Sum](int, int V) { Sum += V; });
    EXPECT_EQ(Sum, 4950);
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoMap, ConcurrentWritesToDistinctKeysRace) {
  // The Listing 6 essence, as a direct unit test.
  RunResult Result = runBody(10, [&] {
    auto M = std::make_shared<GoMap<int, int>>("m");
    WaitGroup Wg;
    for (int W = 0; W < 2; ++W) {
      Wg.add(1);
      go("writer", [M, W, &Wg] {
        M->set(W, W); // Distinct keys; same sparse structure.
        Wg.done();
      });
    }
    Wg.wait();
  });
  EXPECT_GT(Result.RaceCount, 0u);
}

TEST(GoMap, ConcurrentReadsAreRaceFree) {
  RunResult Result = runBody(11, [&] {
    auto M = std::make_shared<GoMap<int, int>>("m");
    M->set(1, 10);
    M->set(2, 20);
    WaitGroup Wg;
    for (int W = 0; W < 3; ++W) {
      Wg.add(1);
      go("reader", [M, &Wg] {
        EXPECT_EQ(M->get(1), 10);
        EXPECT_EQ(M->get(2), 20);
        Wg.done();
      });
    }
    Wg.wait();
  });
  EXPECT_EQ(Result.RaceCount, 0u);
}

TEST(GoMap, MutexProtectedMixedAccessIsRaceFree) {
  RunResult Result = runBody(12, [&] {
    auto M = std::make_shared<GoMap<int, int>>("m");
    auto Mu = std::make_shared<Mutex>("mu");
    WaitGroup Wg;
    for (int W = 0; W < 4; ++W) {
      Wg.add(1);
      go("mixed", [M, Mu, W, &Wg] {
        Mu->lock();
        if (W % 2 == 0)
          M->set(W, W);
        else
          (void)M->get(W - 1);
        Mu->unlock();
        Wg.done();
      });
    }
    Wg.wait();
  });
  EXPECT_TRUE(Result.clean());
}

//===----------------------------------------------------------------------===//
// Shared<T> and GoAtomic<T>
//===----------------------------------------------------------------------===//

TEST(SharedCell, CopyIsANewVariable) {
  RunResult Result = runBody(13, [&] {
    Shared<int> A("a", 1);
    Shared<int> B(A); // x := a — reads a, creates a new variable.
    B = 2;
    EXPECT_EQ(A.load(), 1);
    EXPECT_EQ(B.load(), 2);
    EXPECT_NE(A.addr(), B.addr());
  });
  EXPECT_TRUE(Result.clean());
}

TEST(GoAtomicCell, AtomicOpsNeverRaceWithEachOther) {
  RunResult Result = runBody(14, [&] {
    auto Flag = std::make_shared<GoAtomic<int>>("flag", 0);
    WaitGroup Wg;
    for (int W = 0; W < 4; ++W) {
      Wg.add(1);
      go("atomics", [Flag, W, &Wg] {
        if (W % 2 == 0)
          Flag->store(W);
        else
          (void)Flag->load();
        Flag->add(1);
        Wg.done();
      });
    }
    Wg.wait();
  });
  EXPECT_EQ(Result.RaceCount, 0u);
}

TEST(GoAtomicCell, RawAccessRacesWithAtomicStore) {
  size_t Detections = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RunResult Result = runBody(Seed, [&] {
      auto Flag = std::make_shared<GoAtomic<int>>("flag", 0);
      WaitGroup Wg;
      Wg.add(2);
      go("atomic-writer", [Flag, &Wg] {
        Flag->store(1);
        Wg.done();
      });
      go("plain-reader", [Flag, &Wg] {
        (void)Flag->rawLoad(); // §4.9.2 misuse.
        Wg.done();
      });
      Wg.wait();
    });
    if (Result.RaceCount > 0)
      ++Detections;
  }
  EXPECT_GT(Detections, 0u);
}

} // namespace
