//===- tests/DetectorTest.cpp - Race detector unit tests -------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Exercises the FastTrack happens-before engine and the Eraser lock-set
// engine directly (no runtime), event by event.
//
//===----------------------------------------------------------------------===//

#include "race/Detector.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace grs::race;

namespace {

struct TwoThreads {
  Detector D;
  Tid T0, T1;

  explicit TwoThreads(DetectorOptions Opts = DetectorOptions()) : D(Opts) {
    T0 = D.newRootGoroutine();
    T1 = D.fork(T0);
  }
};

//===----------------------------------------------------------------------===//
// Vector clock algebra
//===----------------------------------------------------------------------===//

TEST(VectorClock, JoinTakesComponentwiseMax) {
  VectorClock A, B;
  A.set(0, 5);
  A.set(1, 1);
  B.set(1, 7);
  B.set(2, 2);
  A.joinWith(B);
  EXPECT_EQ(A.get(0), 5u);
  EXPECT_EQ(A.get(1), 7u);
  EXPECT_EQ(A.get(2), 2u);
}

TEST(VectorClock, CoversEpochSemantics) {
  VectorClock C;
  C.set(3, 10);
  EXPECT_TRUE(C.covers(Epoch{3, 10}));
  EXPECT_TRUE(C.covers(Epoch{3, 9}));
  EXPECT_FALSE(C.covers(Epoch{3, 11}));
  EXPECT_FALSE(C.covers(Epoch{4, 1}));
  EXPECT_FALSE(C.covers(BottomEpoch));
}

TEST(VectorClock, CoversAllAndFirstUncovered) {
  VectorClock A, B;
  A.set(0, 3);
  A.set(1, 3);
  B.set(0, 2);
  B.set(1, 4);
  EXPECT_FALSE(A.coversAll(B));
  EXPECT_EQ(A.firstUncovered(B), 1u);
  A.set(1, 4);
  EXPECT_TRUE(A.coversAll(B));
  EXPECT_EQ(A.firstUncovered(B), InvalidTid);
}

//===----------------------------------------------------------------------===//
// Vector clock algebra laws (randomized)
//===----------------------------------------------------------------------===//

class VcLaws : public ::testing::TestWithParam<uint64_t> {
protected:
  VectorClock randomClock(grs::support::Rng &Rng) {
    VectorClock C;
    size_t Components = Rng.nextBelow(6);
    for (size_t I = 0; I < Components; ++I)
      C.set(static_cast<Tid>(Rng.nextBelow(8)),
            static_cast<Clock>(Rng.nextBelow(50)));
    return C;
  }
};

TEST_P(VcLaws, JoinIsCommutativeAssociativeIdempotent) {
  grs::support::Rng Rng(GetParam());
  for (int Round = 0; Round < 50; ++Round) {
    VectorClock A = randomClock(Rng);
    VectorClock B = randomClock(Rng);
    VectorClock C = randomClock(Rng);

    VectorClock AB = A, BA = B;
    AB.joinWith(B);
    BA.joinWith(A);
    EXPECT_TRUE(AB == BA); // Commutative.

    VectorClock ABthenC = AB;
    ABthenC.joinWith(C);
    VectorClock BC = B;
    BC.joinWith(C);
    VectorClock AthenBC = A;
    AthenBC.joinWith(BC);
    EXPECT_TRUE(ABthenC == AthenBC); // Associative.

    VectorClock AA = A;
    AA.joinWith(A);
    EXPECT_TRUE(AA == A); // Idempotent.

    // The join is an upper bound that covers both operands.
    EXPECT_TRUE(AB.coversAll(A));
    EXPECT_TRUE(AB.coversAll(B));
  }
}

TEST_P(VcLaws, CoversIsMonotoneUnderJoin) {
  grs::support::Rng Rng(GetParam() * 31);
  for (int Round = 0; Round < 50; ++Round) {
    VectorClock A = randomClock(Rng);
    VectorClock B = randomClock(Rng);
    Epoch E{static_cast<Tid>(Rng.nextBelow(8)),
            static_cast<Clock>(Rng.nextBelow(50))};
    bool Before = A.covers(E);
    A.joinWith(B);
    if (Before) {
      EXPECT_TRUE(A.covers(E)); // Joining never un-covers.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcLaws, ::testing::Values(1, 2, 3, 4));

//===----------------------------------------------------------------------===//
// FastTrack happens-before rules
//===----------------------------------------------------------------------===//

TEST(DetectorHB, ConcurrentWritesRace) {
  TwoThreads S;
  EXPECT_FALSE(S.D.onWrite(S.T0, 0x10));
  EXPECT_TRUE(S.D.onWrite(S.T1, 0x10));
  ASSERT_EQ(S.D.reports().size(), 1u);
  EXPECT_TRUE(S.D.reports()[0].isWriteWrite());
}

TEST(DetectorHB, ForkEdgeOrdersParentBeforeChild) {
  Detector D;
  Tid T0 = D.newRootGoroutine();
  D.onWrite(T0, 0x10);
  Tid T1 = D.fork(T0); // Write happens-before the fork.
  EXPECT_FALSE(D.onRead(T1, 0x10));
  EXPECT_FALSE(D.onWrite(T1, 0x10));
}

TEST(DetectorHB, ChildWriteAfterForkRacesWithParent) {
  TwoThreads S;
  S.D.onWrite(S.T1, 0x10); // Child writes after fork...
  EXPECT_TRUE(S.D.onRead(S.T0, 0x10)); // ...parent read is unordered.
}

TEST(DetectorHB, ReleaseAcquireOrdersAccesses) {
  TwoThreads S;
  SyncId M = S.D.newSyncVar("mu");
  S.D.onWrite(S.T0, 0x10);
  S.D.release(S.T0, M);
  S.D.acquire(S.T1, M);
  EXPECT_FALSE(S.D.onWrite(S.T1, 0x10));
  EXPECT_TRUE(S.D.reports().empty());
}

TEST(DetectorHB, ConcurrentReadsDoNotRace) {
  TwoThreads S;
  Tid T2 = S.D.fork(S.T0);
  EXPECT_FALSE(S.D.onRead(S.T0, 0x10));
  EXPECT_FALSE(S.D.onRead(S.T1, 0x10));
  EXPECT_FALSE(S.D.onRead(T2, 0x10));
  EXPECT_EQ(S.D.stats().ReadSharePromotions, 1u);
}

TEST(DetectorHB, WriteAfterConcurrentReadsReportsReadWriteRace) {
  TwoThreads S;
  Tid T2 = S.D.fork(S.T0);
  S.D.onRead(S.T1, 0x10);
  S.D.onRead(T2, 0x10); // Promote to read-shared.
  EXPECT_TRUE(S.D.onWrite(S.T0, 0x10));
  ASSERT_FALSE(S.D.reports().empty());
  EXPECT_EQ(S.D.reports()[0].Previous.Kind, AccessKind::Read);
  EXPECT_EQ(S.D.reports()[0].Current.Kind, AccessKind::Write);
}

TEST(DetectorHB, JoinOrdersChildBeforeParent) {
  TwoThreads S;
  S.D.onWrite(S.T1, 0x10);
  S.D.finish(S.T1);
  S.D.join(S.T0, S.T1);
  EXPECT_FALSE(S.D.onWrite(S.T0, 0x10));
}

TEST(DetectorHB, SameEpochFastPathCounts) {
  Detector D;
  Tid T0 = D.newRootGoroutine();
  D.onWrite(T0, 0x10);
  D.onWrite(T0, 0x10);
  D.onWrite(T0, 0x10);
  EXPECT_EQ(D.stats().SameEpochFastPath, 2u);
}

TEST(DetectorHB, ReleaseMergePreservesBothReleasers) {
  Detector D;
  Tid T0 = D.newRootGoroutine();
  Tid T1 = D.fork(T0);
  Tid T2 = D.fork(T0);
  SyncId Wg = D.newSyncVar("wg");
  D.onWrite(T1, 0x11);
  D.releaseMerge(T1, Wg);
  D.onWrite(T2, 0x12);
  D.releaseMerge(T2, Wg);
  D.acquire(T0, Wg); // Waiter sees BOTH workers' writes.
  EXPECT_FALSE(D.onWrite(T0, 0x11));
  EXPECT_FALSE(D.onWrite(T0, 0x12));
  EXPECT_TRUE(D.reports().empty());
}

TEST(DetectorHB, ReleaseStoreOverwritesSyncClock) {
  // Plain release (store semantics) models mutex handoff: only the LAST
  // releaser's clock is in the sync var — but mutual exclusion chains
  // acquires, so ordering still holds transitively.
  TwoThreads S;
  SyncId M = S.D.newSyncVar("mu");
  S.D.acquire(S.T0, M);
  S.D.onWrite(S.T0, 0x10);
  S.D.release(S.T0, M);
  S.D.acquire(S.T1, M);
  S.D.onWrite(S.T1, 0x10);
  S.D.release(S.T1, M);
  EXPECT_TRUE(S.D.reports().empty());
}

TEST(DetectorHB, ReportCarriesBothChains) {
  TwoThreads S;
  S.D.pushFrame(S.T0, S.D.makeFrame("main", "main.go", 1));
  S.D.pushFrame(S.T0, S.D.makeFrame("writer", "main.go", 5));
  S.D.onWrite(S.T0, 0x10, S.D.interner().intern("x"));
  S.D.pushFrame(S.T1, S.D.makeFrame("worker", "w.go", 9));
  S.D.onWrite(S.T1, 0x10, S.D.interner().intern("x"));
  ASSERT_EQ(S.D.reports().size(), 1u);
  const RaceReport &R = S.D.reports()[0];
  EXPECT_EQ(R.VariableName, "x");
  ASSERT_EQ(R.Previous.Chain.size(), 2u);
  EXPECT_EQ(S.D.interner().text(R.Previous.Chain[0].Function), "main");
  EXPECT_EQ(S.D.interner().text(R.Previous.Chain[1].Function), "writer");
  ASSERT_EQ(R.Current.Chain.size(), 1u);
  EXPECT_EQ(S.D.interner().text(R.Current.Chain[0].Function), "worker");
  // Rendering sanity.
  std::string Text = reportToString(S.D.interner(), R);
  EXPECT_NE(Text.find("WARNING: DATA RACE"), std::string::npos);
  EXPECT_NE(Text.find("worker()"), std::string::npos);
}

TEST(DetectorHB, ReportOncePerAddressThrottles) {
  TwoThreads S;
  for (int I = 0; I < 5; ++I) {
    S.D.onWrite(S.T0, 0x10);
    S.D.onWrite(S.T1, 0x10);
  }
  EXPECT_EQ(S.D.reports().size(), 1u);
}

TEST(DetectorHB, MaxReportsCap) {
  DetectorOptions Opts;
  Opts.MaxReports = 2;
  TwoThreads S(Opts);
  for (Addr A = 1; A <= 10; ++A) {
    S.D.onWrite(S.T0, A);
    S.D.onWrite(S.T1, A);
  }
  EXPECT_EQ(S.D.reports().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Lock sets and the Eraser engine
//===----------------------------------------------------------------------===//

TEST(LockSets, InternAndIntersect) {
  LockSetRegistry R;
  LockSetId A = R.intern({1, 2, 3});
  LockSetId B = R.intern({2, 3, 4});
  LockSetId I = R.intersect(A, B);
  EXPECT_EQ(R.locks(I), (std::vector<SyncId>{2, 3}));
  EXPECT_EQ(R.intersect(A, B), I); // Memoized, same id.
  EXPECT_EQ(R.intersect(A, LockSetRegistry::EmptyId),
            LockSetRegistry::EmptyId);
  EXPECT_EQ(R.intern({3, 2, 1}), A); // Order-insensitive interning.
}

TEST(LockSets, WithAndWithout) {
  LockSetRegistry R;
  LockSetId A = R.withLock(LockSetRegistry::EmptyId, 7);
  EXPECT_TRUE(R.contains(A, 7));
  EXPECT_EQ(R.withLock(A, 7), A);
  EXPECT_EQ(R.withoutLock(A, 7), LockSetRegistry::EmptyId);
}

TEST(DetectorEraser, EmptyIntersectionReports) {
  DetectorOptions Opts;
  Opts.Mode = DetectMode::LockSetOnly;
  TwoThreads S(Opts);
  SyncId M1 = S.D.newSyncVar("m1");
  SyncId M2 = S.D.newSyncVar("m2");
  // T0 writes under m1; T1 writes under m2: candidate set empties.
  S.D.lockAcquired(S.T0, M1, true);
  S.D.onWrite(S.T0, 0x10);
  S.D.lockReleased(S.T0, M1, true);
  S.D.lockAcquired(S.T1, M2, true);
  S.D.onWrite(S.T1, 0x10);
  S.D.lockReleased(S.T1, M2, true);
  ASSERT_EQ(S.D.reports().size(), 1u);
  EXPECT_EQ(S.D.reports()[0].Evidence, RaceEvidence::LockSetEmpty);
}

TEST(DetectorEraser, CommonLockSuppressesReport) {
  DetectorOptions Opts;
  Opts.Mode = DetectMode::LockSetOnly;
  TwoThreads S(Opts);
  SyncId M = S.D.newSyncVar("m");
  S.D.lockAcquired(S.T0, M, true);
  S.D.onWrite(S.T0, 0x10);
  S.D.lockReleased(S.T0, M, true);
  S.D.lockAcquired(S.T1, M, true);
  S.D.onWrite(S.T1, 0x10);
  S.D.lockReleased(S.T1, M, true);
  EXPECT_TRUE(S.D.reports().empty());
}

TEST(DetectorEraser, ReadLockProtectsReadsOnly) {
  DetectorOptions Opts;
  Opts.Mode = DetectMode::LockSetOnly;
  TwoThreads S(Opts);
  SyncId M = S.D.newSyncVar("rw");
  // Both hold the lock in READ mode, but one of them WRITES (Listing 11):
  // a write needs a write-mode lock, so the candidate set is empty.
  S.D.lockAcquired(S.T0, M, /*WriteMode=*/false);
  S.D.onRead(S.T0, 0x10);
  S.D.onWrite(S.T0, 0x10);
  S.D.lockReleased(S.T0, M, false);
  S.D.lockAcquired(S.T1, M, /*WriteMode=*/false);
  S.D.onWrite(S.T1, 0x10);
  S.D.lockReleased(S.T1, M, false);
  ASSERT_FALSE(S.D.reports().empty());
  EXPECT_EQ(S.D.reports()[0].Evidence, RaceEvidence::LockSetEmpty);
}

TEST(DetectorEraser, ExclusivePhaseNeverReports) {
  DetectorOptions Opts;
  Opts.Mode = DetectMode::LockSetOnly;
  Detector D(Opts);
  Tid T0 = D.newRootGoroutine();
  // Initialization pattern: many unlocked writes by ONE goroutine.
  for (int I = 0; I < 10; ++I)
    D.onWrite(T0, 0x10);
  EXPECT_TRUE(D.reports().empty());
}

TEST(DetectorEraser, LockSetFindsRacesHBMisses) {
  // The lock-set algorithm "may include races that may never manifest in
  // practice" (§3.1): a fork edge orders accesses for HB, but the
  // accesses use no common lock, so Eraser still flags them.
  DetectorOptions HbOpts;
  HbOpts.Mode = DetectMode::HappensBefore;
  DetectorOptions LsOpts;
  LsOpts.Mode = DetectMode::LockSetOnly;
  for (DetectorOptions *Opts : {&HbOpts, &LsOpts}) {
    Detector D(*Opts);
    Tid T0 = D.newRootGoroutine();
    D.onWrite(T0, 0x10);
    Tid T1 = D.fork(T0);
    D.onWrite(T1, 0x10); // Ordered by the fork edge; no common lock.
    if (Opts == &HbOpts)
      EXPECT_TRUE(D.reports().empty());
    else
      EXPECT_FALSE(D.reports().empty());
  }
}

TEST(DetectorMisc, TransferSyncMovesPublication) {
  // transferSync is the buffered-channel promotion primitive: a sync
  // var's clock flows into another without any goroutine acting.
  Detector D;
  Tid T0 = D.newRootGoroutine();
  Tid T1 = D.fork(T0);
  SyncId From = D.newSyncVar("from");
  SyncId To = D.newSyncVar("to");
  D.onWrite(T1, 0x90);
  D.releaseMerge(T1, From);
  D.transferSync(From, To);
  D.acquire(T0, To);
  EXPECT_FALSE(D.onWrite(T0, 0x90)); // Ordered through the transfer.
}

TEST(DetectorMisc, SetLineUpdatesInnermostFrame) {
  Detector D;
  Tid T0 = D.newRootGoroutine();
  D.pushFrame(T0, D.makeFrame("outer", "f.go", 1));
  D.pushFrame(T0, D.makeFrame("inner", "f.go", 5));
  D.setLine(T0, 42);
  const CallChain &Chain = D.currentChain(T0);
  ASSERT_EQ(Chain.size(), 2u);
  EXPECT_EQ(Chain[0].Line, 1u);  // Outer untouched.
  EXPECT_EQ(Chain[1].Line, 42u); // Innermost updated.
}

TEST(DetectorMisc, VectorClockAndLockSetRendering) {
  VectorClock C;
  C.set(0, 3);
  C.set(2, 7);
  EXPECT_EQ(C.str(), "[3, 0, 7]");
  LockSetRegistry R;
  LockSetId Id = R.intern({2, 5});
  EXPECT_EQ(R.str(Id), "{m2, m5}");
  EXPECT_EQ(R.str(LockSetRegistry::EmptyId), "{}");
  EXPECT_STREQ(eraserStateName(EraserState::SharedModified),
               "shared-modified");
}

TEST(DetectorMisc, ChainlessModeOmitsChainsButStillReports) {
  DetectorOptions Opts;
  Opts.KeepChains = false;
  TwoThreads S(Opts);
  S.D.pushFrame(S.T0, S.D.makeFrame("f", "f.go", 1));
  S.D.pushFrame(S.T1, S.D.makeFrame("g", "g.go", 2));
  S.D.onWrite(S.T0, 0x91);
  S.D.onWrite(S.T1, 0x91);
  ASSERT_EQ(S.D.reports().size(), 1u);
  EXPECT_TRUE(S.D.reports()[0].Previous.Chain.empty());
  EXPECT_TRUE(S.D.reports()[0].Current.Chain.empty());
}

TEST(DetectorMisc, LockSetEvidenceRendersWithCaveat) {
  DetectorOptions Opts;
  Opts.Mode = DetectMode::LockSetOnly;
  TwoThreads S(Opts);
  S.D.onWrite(S.T0, 0x92, S.D.interner().intern("var"));
  S.D.onWrite(S.T1, 0x92, S.D.interner().intern("var"));
  ASSERT_EQ(S.D.reports().size(), 1u);
  std::string Text = reportToString(S.D.interner(), S.D.reports()[0]);
  EXPECT_NE(Text.find("lock-set evidence"), std::string::npos);
  EXPECT_NE(Text.find("(var)"), std::string::npos);
}

TEST(DetectorMisc, ReportSinkFiresOnEmission) {
  TwoThreads S;
  size_t SinkCalls = 0;
  S.D.setReportSink([&SinkCalls](const RaceReport &) { ++SinkCalls; });
  S.D.onWrite(S.T0, 0x93);
  S.D.onWrite(S.T1, 0x93);
  S.D.onWrite(S.T1, 0x93); // Throttled: no second report.
  EXPECT_EQ(SinkCalls, 1u);
}

TEST(DetectorHybrid, HbReportSubsumesLockSetReport) {
  DetectorOptions Opts;
  Opts.Mode = DetectMode::Hybrid;
  TwoThreads S(Opts);
  S.D.onWrite(S.T0, 0x10);
  S.D.onWrite(S.T1, 0x10);
  // One HB report; the lock-set finding for the same address suppressed.
  ASSERT_EQ(S.D.reports().size(), 1u);
  EXPECT_EQ(S.D.reports()[0].Evidence, RaceEvidence::HappensBefore);
}

} // namespace
