//===- tests/AdaptiveSweepTest.cpp - Adaptive sweep battery ----------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The determinism/parity battery for the adaptive schedule search
// (src/sweep/Adaptive.h):
//
//  * PARITY — with ExploitWeight 0 every slot is an explore slot, so the
//    adaptive sweep must be INDISTINGUISHABLE (operator==, including
//    every finding's rendered sample report) from pipeline::sweep on the
//    same options, for every schedule-dependent registry pattern.
//  * DETERMINISM — the result is a pure function of the options: any
//    Threads value and any repeat produces a bit-identical
//    AdaptiveResult (parallel == serial).
//  * FEATURES — probeRun's schedule feature vectors match hand-computed
//    ground truth on bodies whose schedules are fully determined
//    (PreemptProbability 0, single goroutine), and are per-run deltas
//    even on a registry that has accumulated many runs.
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "corpus/ScheduleDeps.h"
#include "obs/Metrics.h"
#include "rt/Channel.h"
#include "rt/Instr.h"
#include "rt/Select.h"
#include "rt/Sync.h"
#include "sweep/Adaptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <set>
#include <vector>

using namespace grs;
using namespace grs::sweep;

namespace {

//===----------------------------------------------------------------------===//
// Parity: ExploitWeight 0 == pipeline::sweep
//===----------------------------------------------------------------------===//

TEST(AdaptiveParity, WeightZeroEqualsPipelineSweepOnEveryNeedle) {
  for (const corpus::ScheduleDep &Dep : corpus::scheduleDeps()) {
    if (!Dep.Body)
      continue; // Corpus rows have no raw body for pipeline::sweep.
    pipeline::SweepOptions S;
    S.FirstSeed = 7;
    S.NumSeeds = 48;
    pipeline::SweepResult Uniform = pipeline::sweep(S, Dep.Body);

    AdaptiveOptions A = adaptiveFrom(S, Dep.Run);
    A.ExploitWeight = 0.0;
    AdaptiveResult Adaptive = adaptive(A);

    EXPECT_EQ(Adaptive.Sweep, Uniform) << Dep.Id;
    EXPECT_EQ(Adaptive.ExploitRuns, 0u) << Dep.Id;
    EXPECT_EQ(Adaptive.ExploreRuns, S.NumSeeds) << Dep.Id;
  }
}

TEST(AdaptiveParity, WeightZeroFirstRacyRunMatchesAscendingScan) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("stalled-worker");
  ASSERT_NE(Dep, nullptr);
  AdaptiveOptions A;
  A.FirstSeed = 1;
  A.NumRuns = 64;
  A.ExploitWeight = 0.0;
  A.Body = Dep->Run;
  AdaptiveResult R = adaptive(A);

  uint64_t Expected = 0;
  for (uint64_t I = 0; I < A.NumRuns && !Expected; ++I) {
    rt::RunOptions Opts;
    Opts.Seed = A.FirstSeed + I;
    if (Dep->Run(Opts).RaceCount > 0)
      Expected = I + 1;
  }
  ASSERT_GT(Expected, 0u) << "needle never manifested in 64 seeds";
  EXPECT_EQ(R.FirstRacyRun, Expected);
  // Every finding's first-hit index is within the run budget and
  // consistent with the racy-run index.
  ASSERT_FALSE(R.FirstHitRun.empty());
  EXPECT_EQ(R.FirstHitRun.begin()->second, Expected);
}

//===----------------------------------------------------------------------===//
// Determinism: bit-identical across thread counts and repeats
//===----------------------------------------------------------------------===//

AdaptiveOptions exploitingOptions(const corpus::ScheduleDep &Dep,
                                  unsigned Threads) {
  AdaptiveOptions A;
  A.FirstSeed = 3;
  A.NumRuns = 48;
  A.PlannerSeed = 17;
  A.Threads = Threads;
  A.Body = Dep.Run;
  return A;
}

TEST(AdaptiveDeterminism, ThreadCountInvariance) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("double-stall");
  ASSERT_NE(Dep, nullptr);
  AdaptiveResult Serial = adaptive(exploitingOptions(*Dep, 1));
  EXPECT_GT(Serial.ExploitRuns, 0u) << "test must exercise exploit slots";
  for (unsigned Threads : {2u, 8u}) {
    AdaptiveResult Parallel = adaptive(exploitingOptions(*Dep, Threads));
    EXPECT_EQ(Parallel, Serial) << Threads << " threads diverged";
  }
}

TEST(AdaptiveDeterminism, RepeatInvariance) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("token-select");
  ASSERT_NE(Dep, nullptr);
  AdaptiveResult First = adaptive(exploitingOptions(*Dep, 2));
  AdaptiveResult Second = adaptive(exploitingOptions(*Dep, 2));
  EXPECT_EQ(First, Second);
}

// Round workers beyond the caller are helper threads that outlive the
// call, so a second Threads = 2 call starts none: counted from inside
// every run against the count just before the call.
TEST(AdaptiveDeterminism, SecondCallStartsNoThread) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("token-select");
  ASSERT_NE(Dep, nullptr);
  auto Threads = [] {
    return std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator());
  };
  AdaptiveOptions A = exploitingOptions(*Dep, 2);
  AdaptiveResult First = adaptive(A);
  std::atomic<long> Most{0};
  A.Body = [&](const rt::RunOptions &Opts) {
    long Now = Threads();
    long Seen = Most.load();
    while (Now > Seen && !Most.compare_exchange_weak(Seen, Now))
      ;
    return Dep->Run(Opts);
  };
  long Before = Threads();
  EXPECT_EQ(adaptive(A), First);
  EXPECT_EQ(Most.load(), Before);
}

TEST(AdaptiveDeterminism, BudgetBookkeepingAddsUp) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("window-needle");
  ASSERT_NE(Dep, nullptr);
  AdaptiveOptions A = exploitingOptions(*Dep, 1);
  A.NumRuns = 50;
  A.RoundSize = 4;
  AdaptiveResult R = adaptive(A);
  EXPECT_EQ(R.Sweep.SeedsRun, A.NumRuns);
  EXPECT_EQ(R.ExploreRuns + R.ExploitRuns, A.NumRuns);
  EXPECT_EQ(R.Rounds, (A.NumRuns + A.RoundSize - 1) / A.RoundSize);
}

//===----------------------------------------------------------------------===//
// Sanity floor: adaptive never loses to uniform on always-manifesting rows
//===----------------------------------------------------------------------===//

uint64_t medianOf(std::vector<uint64_t> Values) {
  std::sort(Values.begin(), Values.end());
  return Values[Values.size() / 2];
}

// Median runs-to-first-detection over independent trials (censored at the
// budget as Budget + 1). On a row that manifests under every schedule, an
// adaptive sweep slower than the uniform one means the engine broke.
TEST(AdaptiveFloor, AlwaysRowsDetectNoLaterThanUniform) {
  constexpr uint64_t Budget = 120;
  constexpr unsigned Trials = 5;
  unsigned Rows = 0;
  for (const corpus::ScheduleDep &Dep : corpus::scheduleDeps()) {
    if (!Dep.Always)
      continue;
    ++Rows;
    std::vector<uint64_t> Uniform, Adaptive;
    for (unsigned T = 0; T < Trials; ++T) {
      // Disjoint seed bases per trial, so trials are independent samples;
      // prime spacing decorrelates the blocks from the budget.
      uint64_t BaseSeed = 1 + static_cast<uint64_t>(T) * 9973;
      uint64_t First = Budget + 1;
      for (uint64_t I = 0; I < Budget && First > Budget; ++I) {
        rt::RunOptions Opts;
        Opts.Seed = BaseSeed + I;
        if (Dep.Run(Opts).RaceCount > 0)
          First = I + 1;
      }
      Uniform.push_back(First);

      AdaptiveOptions A;
      A.FirstSeed = BaseSeed;
      A.NumRuns = Budget;
      A.PlannerSeed = 1000 + T;
      A.Body = Dep.Run;
      AdaptiveResult R = adaptive(A);
      Adaptive.push_back(R.FirstRacyRun ? R.FirstRacyRun : Budget + 1);
    }
    EXPECT_LE(medianOf(Adaptive), medianOf(Uniform)) << Dep.Id;
  }
  EXPECT_GT(Rows, 0u);
}

//===----------------------------------------------------------------------===//
// Feature extraction: ground truth on fully deterministic bodies
//===----------------------------------------------------------------------===//

/// Runs \p Body under probeRun at PreemptProbability \p Prob.
FeatureVector probeFeatures(obs::Registry &Reg, double Prob, uint64_t Seed,
                            std::function<void()> Body) {
  rt::RunOptions Opts;
  Opts.Seed = Seed;
  Opts.PreemptProbability = Prob;
  FeatureVector F;
  probeRun(Opts, corpus::hostBody(Body), Reg, F);
  return F;
}

/// Single goroutine, no preemption: 3 sends, 2 recvs, 1 close — the
/// channel-op mix is exact, and with no scheduling choices there are no
/// preemptions.
void chanMixBody() {
  rt::Chan<int> Ch(4, "ch");
  Ch.send(1);
  Ch.send(2);
  Ch.send(3);
  (void)Ch.recvValue();
  (void)Ch.recvValue();
  Ch.close();
}

TEST(AdaptiveFeatures, ChannelOpMixIsExact) {
  obs::Registry Reg;
  FeatureVector F = probeFeatures(Reg, 0.0, 1, chanMixBody);
  EXPECT_EQ(F.ChanSends, 3u);
  EXPECT_EQ(F.ChanRecvs, 2u);
  EXPECT_EQ(F.ChanCloses, 1u);
  EXPECT_EQ(F.chanOps(), 6u);
  EXPECT_EQ(F.Selects, 0u);
  EXPECT_EQ(F.Preemptions, 0u);
  EXPECT_DOUBLE_EQ(F.preemptRate(), 0.0);
  EXPECT_DOUBLE_EQ(F.SelectEntropy, 0.0);
  EXPECT_GT(F.Steps, 0u);
}

/// Two selects with DIFFERENT ready-arm counts (1, then 2): the
/// ready-arm histogram lands one observation in each of two buckets, so
/// the entropy is exactly one bit.
void twoArmEntropyBody() {
  rt::Chan<int> A(1, "a");
  rt::Chan<int> B(1, "b");
  A.send(1);
  {
    rt::Selector Sel; // Only A is ready: 1 ready arm.
    Sel.onRecv<int>(A, [](int, bool) {});
    Sel.onRecv<int>(B, [](int, bool) {});
    Sel.run();
  }
  A.send(2);
  B.send(3);
  {
    rt::Selector Sel; // Both ready: 2 ready arms.
    Sel.onRecv<int>(A, [](int, bool) {});
    Sel.onRecv<int>(B, [](int, bool) {});
    Sel.run();
  }
}

TEST(AdaptiveFeatures, SelectEntropyIsOneBitForTwoDistinctReadyCounts) {
  obs::Registry Reg;
  FeatureVector F = probeFeatures(Reg, 0.0, 1, twoArmEntropyBody);
  EXPECT_EQ(F.Selects, 2u);
  EXPECT_DOUBLE_EQ(F.SelectEntropy, 1.0);
}

/// Two selects that both see exactly one ready arm: a single occupied
/// bucket has zero entropy.
void uniformArmBody() {
  rt::Chan<int> A(2, "a");
  A.send(1);
  for (int I = 0; I < 2; ++I) {
    rt::Selector Sel;
    Sel.onRecv<int>(A, [](int, bool) {});
    Sel.onDefault([] {});
    Sel.run();
  }
}

TEST(AdaptiveFeatures, SelectEntropyIsZeroForUniformReadyCounts) {
  obs::Registry Reg;
  FeatureVector F = probeFeatures(Reg, 0.0, 1, uniformArmBody);
  EXPECT_EQ(F.Selects, 2u);
  EXPECT_DOUBLE_EQ(F.SelectEntropy, 0.0);
}

TEST(AdaptiveFeatures, DeltasArePerRunDespiteRegistryAccumulation) {
  // The same (body, seed, prob) probed repeatedly on ONE registry must
  // yield the same features every time — and the same as on a fresh
  // registry — because features are instrument deltas around the run.
  obs::Registry LongLived;
  FeatureVector First = probeFeatures(LongLived, 0.0, 1, chanMixBody);
  probeFeatures(LongLived, 0.3, 5, twoArmEntropyBody); // unrelated noise
  FeatureVector Again = probeFeatures(LongLived, 0.0, 1, chanMixBody);
  EXPECT_EQ(Again, First);

  obs::Registry Fresh;
  EXPECT_EQ(probeFeatures(Fresh, 0.0, 1, chanMixBody), First);
}

TEST(AdaptiveFeatures, PreemptionsAppearAtHighProbability) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("stalled-worker");
  ASSERT_NE(Dep, nullptr);
  obs::Registry Reg;
  FeatureVector F = probeFeatures(Reg, 0.95, 3, Dep->Body);
  EXPECT_GT(F.Preemptions, 0u);
  EXPECT_GT(F.preemptRate(), 0.0);
  EXPECT_GT(F.CtxSwitches, 0u);
}

//===----------------------------------------------------------------------===//
// Bucketing and the preemption ladder
//===----------------------------------------------------------------------===//

TEST(AdaptiveBuckets, LadderIsAscendingProbabilities) {
  const std::vector<double> &L = preemptLadder();
  ASSERT_GE(L.size(), 3u);
  for (size_t I = 0; I + 1 < L.size(); ++I)
    EXPECT_LT(L[I], L[I + 1]);
  EXPECT_GT(L.front(), 0.0);
  EXPECT_LT(L.back(), 1.0);
}

TEST(AdaptiveBuckets, FeatureBucketBandsAreExact) {
  EXPECT_EQ(numFeatureBuckets(), 6u);
  auto Vec = [](uint64_t Preemptions, uint64_t Steps, double Entropy) {
    FeatureVector F;
    F.Preemptions = Preemptions;
    F.Steps = Steps;
    F.SelectEntropy = Entropy;
    return F;
  };
  // Rate bands split at 0.05 and 0.15; entropy bands at zero/nonzero.
  EXPECT_EQ(featureBucket(Vec(0, 100, 0.0)), 0u);   // rate 0, no entropy
  EXPECT_EQ(featureBucket(Vec(0, 100, 0.8)), 1u);   // rate 0, entropy
  EXPECT_EQ(featureBucket(Vec(10, 100, 0.0)), 2u);  // rate 0.10
  EXPECT_EQ(featureBucket(Vec(10, 100, 0.5)), 3u);
  EXPECT_EQ(featureBucket(Vec(50, 100, 0.0)), 4u);  // rate 0.50
  EXPECT_EQ(featureBucket(Vec(50, 100, 1.5)), 5u);
  // Band edges are inclusive on the upper band.
  EXPECT_EQ(featureBucket(Vec(5, 100, 0.0)), 2u);   // rate == 0.05
  EXPECT_EQ(featureBucket(Vec(15, 100, 0.0)), 4u);  // rate == 0.15
}

//===----------------------------------------------------------------------===//
// Sweep-level instruments
//===----------------------------------------------------------------------===//

TEST(AdaptiveInstruments, SweepCountersMirrorTheResult) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("stalled-worker");
  ASSERT_NE(Dep, nullptr);
  obs::Registry Reg;
  AdaptiveOptions A = exploitingOptions(*Dep, 1);
  A.Metrics = &Reg;
  AdaptiveResult R = adaptive(A);

  EXPECT_EQ(Reg.findCounter("grs_sweep_rounds_total")->value(), R.Rounds);
  EXPECT_EQ(Reg.findCounter("grs_sweep_explore_runs_total")->value(),
            R.ExploreRuns);
  EXPECT_EQ(Reg.findCounter("grs_sweep_exploit_runs_total")->value(),
            R.ExploitRuns);
  EXPECT_DOUBLE_EQ(Reg.findGauge("grs_sweep_exploit_ratio")->value(),
                   static_cast<double>(R.ExploitRuns) /
                       static_cast<double>(R.Sweep.SeedsRun));
  // One first-hit gauge per discovered fingerprint.
  ASSERT_FALSE(R.FirstHitRun.empty());
  for (const auto &[Fp, Hit] : R.FirstHitRun) {
    char Buf[19];
    std::snprintf(Buf, sizeof(Buf), "0x%llx",
                  static_cast<unsigned long long>(Fp));
    const obs::Gauge *G =
        Reg.findGauge("grs_sweep_first_hit_run_index", {{"fp", Buf}});
    ASSERT_NE(G, nullptr);
    EXPECT_DOUBLE_EQ(G->value(), static_cast<double>(Hit));
  }
}

TEST(AdaptiveInstruments, DisabledRegistryIsIgnored) {
  const corpus::ScheduleDep *Dep = corpus::findScheduleDep("stalled-worker");
  ASSERT_NE(Dep, nullptr);
  obs::Registry Disabled(/*Enabled=*/false);
  AdaptiveOptions A = exploitingOptions(*Dep, 1);
  A.Metrics = &Disabled;
  AdaptiveResult R = adaptive(A);
  EXPECT_EQ(R.Sweep.SeedsRun, A.NumRuns);
  EXPECT_TRUE(Disabled.counters().empty());
}

} // namespace
