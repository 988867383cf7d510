//===- sweep/Adaptive.cpp - Telemetry-guided adaptive seed sweeps ---------===//

#include "sweep/Adaptive.h"

#include "sweep/Resilient.h"

#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace grs;
using namespace grs::sweep;

//===----------------------------------------------------------------------===//
// Feature extraction
//===----------------------------------------------------------------------===//

namespace {

uint64_t counterValue(const obs::Registry &Reg, const char *Name,
                      const obs::LabelList &Labels = {}) {
  const obs::Counter *C = Reg.findCounter(Name, Labels);
  return C ? C->value() : 0;
}

/// Instrument values before a run, for delta-based per-run features on a
/// long-lived (per-worker) registry.
struct InstrumentSnapshot {
  uint64_t CtxSwitches = 0;
  uint64_t Blocks = 0;
  uint64_t Steps = 0;
  uint64_t ChanSends = 0;
  uint64_t ChanRecvs = 0;
  uint64_t ChanCloses = 0;
  uint64_t Selects = 0;
  uint64_t Preemptions = 0;
  std::vector<uint64_t> SelectBuckets;
};

InstrumentSnapshot takeSnapshot(const obs::Registry &Reg, uint64_t Seed) {
  InstrumentSnapshot S;
  S.CtxSwitches = counterValue(Reg, "grs_rt_context_switches_total");
  S.Blocks = counterValue(Reg, "grs_rt_blocks_total");
  S.Steps = counterValue(Reg, "grs_rt_steps_total");
  S.ChanSends = counterValue(Reg, "grs_rt_chan_sends_total");
  S.ChanRecvs = counterValue(Reg, "grs_rt_chan_recvs_total");
  S.ChanCloses = counterValue(Reg, "grs_rt_chan_closes_total");
  S.Selects = counterValue(Reg, "grs_rt_selects_total");
  S.Preemptions = counterValue(Reg, "grs_rt_preemptions_total",
                               {{"seed", std::to_string(Seed)}});
  if (const obs::Histogram *H =
          Reg.findHistogram("grs_rt_select_ready_arms"))
    for (size_t K = 0; K < H->numBuckets(); ++K)
      S.SelectBuckets.push_back(H->bucketCount(K));
  return S;
}

/// Shannon entropy (bits) of the per-bucket count deltas.
double bucketDeltaEntropy(const std::vector<uint64_t> &Before,
                          const std::vector<uint64_t> &After) {
  std::vector<uint64_t> Delta;
  uint64_t Total = 0;
  for (size_t K = 0; K < After.size(); ++K) {
    uint64_t Prev = K < Before.size() ? Before[K] : 0;
    Delta.push_back(After[K] - Prev);
    Total += Delta.back();
  }
  if (!Total)
    return 0.0;
  double H = 0.0;
  for (uint64_t D : Delta) {
    if (!D)
      continue;
    double P = static_cast<double>(D) / static_cast<double>(Total);
    H -= P * std::log2(P);
  }
  return H;
}

} // namespace

rt::RunResult sweep::probeRun(rt::RunOptions Opts, const Runner &Run,
                              obs::Registry &Reg,
                              FeatureVector &Features) {
  Opts.Metrics = &Reg;
  InstrumentSnapshot Before = takeSnapshot(Reg, Opts.Seed);
  rt::RunResult Result = Run(Opts);
  InstrumentSnapshot After = takeSnapshot(Reg, Opts.Seed);
  Features = FeatureVector();
  Features.Preemptions = After.Preemptions - Before.Preemptions;
  Features.CtxSwitches = After.CtxSwitches - Before.CtxSwitches;
  Features.Blocks = After.Blocks - Before.Blocks;
  Features.Steps = After.Steps - Before.Steps;
  Features.ChanSends = After.ChanSends - Before.ChanSends;
  Features.ChanRecvs = After.ChanRecvs - Before.ChanRecvs;
  Features.ChanCloses = After.ChanCloses - Before.ChanCloses;
  Features.Selects = After.Selects - Before.Selects;
  Features.SelectEntropy =
      bucketDeltaEntropy(Before.SelectBuckets, After.SelectBuckets);
  return Result;
}

//===----------------------------------------------------------------------===//
// Bandit arms
//===----------------------------------------------------------------------===//

const std::vector<double> &sweep::preemptLadder() {
  static const std::vector<double> Ladder = {0.02, 0.05, 0.1,  0.2,
                                             0.35, 0.5,  0.75, 0.95};
  return Ladder;
}

static size_t nearestLadderIndex(double Prob) {
  const std::vector<double> &L = preemptLadder();
  size_t BestIdx = 0;
  double BestDist = std::abs(L[0] - Prob);
  for (size_t I = 1; I < L.size(); ++I) {
    double Dist = std::abs(L[I] - Prob);
    if (Dist < BestDist) {
      BestDist = Dist;
      BestIdx = I;
    }
  }
  return BestIdx;
}

// Preemption-rate bands x select-entropy bands. The rate thresholds are
// fixed (not data-relative) so bucketing is a pure function of one run —
// a requirement for order-insensitive merging.
static constexpr double RateBands[] = {0.05, 0.15};
static constexpr size_t NumRateBands = 3;
static constexpr size_t NumEntropyBands = 2;

size_t sweep::featureBucket(const FeatureVector &F) {
  double Rate = F.preemptRate();
  size_t RateBand = 0;
  while (RateBand < NumRateBands - 1 && Rate >= RateBands[RateBand])
    ++RateBand;
  size_t EntropyBand = F.SelectEntropy > 0.0 ? 1 : 0;
  return RateBand * NumEntropyBands + EntropyBand;
}

size_t sweep::numFeatureBuckets() { return NumRateBands * NumEntropyBands; }

//===----------------------------------------------------------------------===//
// The adaptive sweep
//===----------------------------------------------------------------------===//

namespace {

struct PlannedRun {
  uint64_t Seed = 0;
  double Prob = 0.2;
  bool Exploit = false;
  /// Bandit arm that planned this exploit run (SIZE_MAX for explore
  /// runs): the arm a FaultPenalty lands on when the run is disturbed.
  size_t Arm = SIZE_MAX;
};

/// One fingerprint's contribution from a single run: occurrence count
/// plus the run's first rendered report of it (rendering is per-run so
/// merging in planned order reproduces the serial sweep's samples).
struct FpEntry {
  size_t Occurrences = 0;
  std::string Sample;
};

struct RunRecord {
  rt::RunResult Run;
  FeatureVector Features;
  std::map<uint64_t, FpEntry> ByFp;
  /// Attempts consumed (deterministic: the run is a pure function of
  /// its options, so a disturbed run is disturbed on every retry of the
  /// SAME options — retries pay off when the disturbance is environmental,
  /// and cost exactly MaxAttempts when it is not).
  uint32_t Attempts = 1;
};

/// True when the run's machinery — not the program under test — failed:
/// the watchdog fired or a foreign exception crossed the fiber boundary.
/// Step limits stay a scheduling verdict, as they always were here.
bool disturbed(const rt::RunResult &Run) {
  return Run.WatchdogFired || !Run.ForeignExceptions.empty();
}

struct ArmStat {
  uint64_t Pulls = 0;
  double TotalReward = 0.0;
  double mean() const {
    return Pulls ? TotalReward / static_cast<double>(Pulls) : 0.0;
  }
};

/// Best-rewarded run seen in a bucket: the parent exploit runs derive
/// children from. Ties keep the earlier run (deterministic).
struct ParentInfo {
  bool Valid = false;
  uint64_t Seed = 0;
  double Prob = 0.2;
  double Reward = -1.0;
};

RunRecord execOnce(const PlannedRun &P, const AdaptiveOptions &Opts,
                   obs::Registry &Reg) {
  rt::RunOptions RunOpts = Opts.Run;
  RunOpts.Seed = P.Seed;
  RunOpts.PreemptProbability = P.Prob;
  RunRecord Rec;
  RunOpts.OnReport = [&Rec](const race::Detector &D,
                            const race::RaceReport &Report) {
    uint64_t Fp = pipeline::raceFingerprint(D.interner(), Report);
    FpEntry &Entry = Rec.ByFp[Fp];
    ++Entry.Occurrences;
    if (Entry.Sample.empty())
      Entry.Sample = race::reportToString(D.interner(), Report);
  };
  Rec.Run = probeRun(std::move(RunOpts), Opts.Body, Reg, Rec.Features);
  return Rec;
}

RunRecord execPlanned(const PlannedRun &P, const AdaptiveOptions &Opts,
                      obs::Registry &Reg) {
  uint32_t MaxAttempts = Opts.MaxAttempts ? Opts.MaxAttempts : 1;
  for (uint32_t Attempt = 1;; ++Attempt) {
    RunRecord Rec = execOnce(P, Opts, Reg);
    Rec.Attempts = Attempt;
    if (!disturbed(Rec.Run) || Attempt >= MaxAttempts)
      return Rec;
  }
}

double rewardOf(const RunRecord &Rec, size_t NewFps) {
  // New fingerprints dominate; a racy run (even if deduplicated away)
  // still signals a productive region; the prior keeps a gradient alive
  // before the first detection, pointing at schedules that interleave
  // hard (§3.1: interleaving-dependent races need preemptions). The
  // prior must stay MONOTONE over the whole observable preempt-rate
  // range: small corpus bodies run at rates 0.2-0.7, and a prior that
  // saturates below that ties every run's reward, so the strict-greater
  // parent replacement would pin the ladder walk to its first low-rung
  // parent forever.
  double Prior = 0.1 * std::min(1.0, Rec.Features.preemptRate()) +
                 0.1 * std::min(1.0, Rec.Features.SelectEntropy);
  return 2.0 * static_cast<double>(NewFps) +
         (Rec.Run.RaceCount > 0 ? 0.5 : 0.0) + Prior;
}

} // namespace

AdaptiveResult sweep::adaptive(const AdaptiveOptions &Opts) {
  assert(Opts.Body && "AdaptiveOptions::Body is required");
  AdaptiveResult Result;

  unsigned Threads =
      Opts.Threads ? Opts.Threads : std::thread::hardware_concurrency();
  if (Threads == 0)
    Threads = 1;
  size_t RoundSize = Opts.RoundSize ? Opts.RoundSize : 1;
  double ExploitWeight = std::clamp(Opts.ExploitWeight, 0.0, 1.0);

  // Sweep-level instruments (null-safe when Opts.Metrics is absent).
  obs::Registry *SweepReg = Opts.Metrics;
  if (SweepReg && !SweepReg->enabled())
    SweepReg = nullptr;
  obs::Counter *MRounds =
      SweepReg ? SweepReg->counter("grs_sweep_rounds_total") : nullptr;
  obs::Counter *MExplore =
      SweepReg ? SweepReg->counter("grs_sweep_explore_runs_total") : nullptr;
  obs::Counter *MExploit =
      SweepReg ? SweepReg->counter("grs_sweep_exploit_runs_total") : nullptr;
  obs::Gauge *MRatio =
      SweepReg ? SweepReg->gauge("grs_sweep_exploit_ratio") : nullptr;
  obs::Timeseries *MRoundNew =
      SweepReg ? SweepReg->timeseries("grs_sweep_round_new_fingerprints")
               : nullptr;
  obs::Counter *MFaulted =
      SweepReg ? SweepReg->counter("grs_sweep_faulted_runs_total") : nullptr;

  // One probe registry per worker, persisting across rounds so the
  // amortized handle bundle (obs/RuntimeMetrics.h) pays off; features
  // are instrument DELTAS, so accumulation does not leak across runs.
  std::vector<std::unique_ptr<obs::Registry>> WorkerRegs;
  for (unsigned I = 0; I < Threads; ++I)
    WorkerRegs.push_back(std::make_unique<obs::Registry>(true));

  // Flight-recorder lanes: one planner track for round spans, one track
  // per worker for slot spans, created up front for deterministic order.
  obs::TimelineTrack *PlannerTrack =
      Opts.Timeline ? Opts.Timeline->track("adaptive-planner") : nullptr;
  std::vector<obs::TimelineTrack *> WorkerTracks(Threads, nullptr);
  if (Opts.Timeline)
    for (unsigned I = 0; I < Threads; ++I)
      WorkerTracks[I] =
          Opts.Timeline->track("adaptive-worker-" + std::to_string(I));

  // Bandit state, updated serially at each round barrier.
  support::Rng Planner(Opts.PlannerSeed);
  std::vector<ArmStat> Arms(numFeatureBuckets());
  std::vector<ParentInfo> BestParent(numFeatureBuckets());
  // Each arm's position on the preemption ladder. The cursor RATCHETS
  // upward across that arm's exploit runs instead of restarting from the
  // parent's rung: per-run preempt-rate is far too noisy on small bodies
  // to rank probabilities, so a walk anchored to the best-feature parent
  // keeps resetting to whatever explore run drew a high rate. Only a
  // detection-grade reward (racy run or new fingerprint) re-anchors the
  // cursor, to the rung that actually detected something. The walk
  // starts two rungs ABOVE the base probability (but never past the
  // blind-drift cap below): exploit runs at the base rung would only
  // duplicate what the explore stream already samples.
  size_t BaseIdx = nearestLadderIndex(Opts.Run.PreemptProbability);
  size_t DriftCap = preemptLadder().size() - 2;
  std::vector<size_t> ArmCursor(
      numFeatureBuckets(),
      std::min(BaseIdx + 2, std::max(BaseIdx, DriftCap)));
  bool HaveParent = false;
  uint64_t BaseCursor = 0;    // next unconsumed base-range offset
  uint64_t ExploitCounter = 0; // child-seed derivation stream
  uint64_t RunIndex = 0;       // planned runs so far (1-based when used)

  while (Result.Sweep.SeedsRun < Opts.NumRuns) {
    obs::TimelineScope RoundSpan =
        PlannerTrack
            ? obs::TimelineScope(PlannerTrack, "round",
                                 "\"round\":" +
                                     std::to_string(Result.Rounds))
            : obs::TimelineScope();
    uint64_t Remaining = Opts.NumRuns - Result.Sweep.SeedsRun;
    size_t ThisRound =
        static_cast<size_t>(std::min<uint64_t>(RoundSize, Remaining));

    // Plan the round serially. Explore slots come first and consume the
    // base seed range ascending — with ExploitWeight 0 (or before any
    // feedback exists) the whole schedule degenerates to the uniform
    // pipeline::sweep order, which is the parity property.
    size_t ExploitSlots =
        (Result.Rounds == 0 || !HaveParent)
            ? 0
            : static_cast<size_t>(
                  std::floor(static_cast<double>(ThisRound) * ExploitWeight));
    std::vector<PlannedRun> Plan;
    Plan.reserve(ThisRound);
    for (size_t I = ExploitSlots; I < ThisRound; ++I) {
      PlannedRun P;
      P.Seed = Opts.FirstSeed + BaseCursor++;
      P.Prob = Opts.Run.PreemptProbability;
      Plan.push_back(P);
    }
    for (size_t I = 0; I < ExploitSlots; ++I) {
      // Epsilon-greedy arm choice among buckets that can supply a
      // parent: greedy takes the best mean reward; the epsilon branch
      // samples weighted toward under-pulled arms, which is what biases
      // later rounds into under-explored feature regions.
      std::vector<size_t> Eligible;
      for (size_t A = 0; A < Arms.size(); ++A)
        if (BestParent[A].Valid)
          Eligible.push_back(A);
      size_t Arm = Eligible.front();
      if (Planner.chance(std::clamp(Opts.Epsilon, 0.0, 1.0))) {
        std::vector<double> Weights;
        for (size_t A : Eligible)
          Weights.push_back(1.0 /
                            (1.0 + static_cast<double>(Arms[A].Pulls)));
        Arm = Eligible[Planner.weightedIndex(Weights)];
      } else {
        for (size_t A : Eligible)
          if (Arms[A].mean() > Arms[Arm].mean())
            Arm = A;
      }
      const ParentInfo &Parent = BestParent[Arm];
      // Child seed: a SplitMix64 expansion of (parent seed, exploit
      // ordinal) — deterministic, and decorrelated from the base range.
      support::SplitMix64 Mix(Parent.Seed +
                              0x9e3779b97f4a7c15ULL * ++ExploitCounter);
      PlannedRun P;
      P.Exploit = true;
      P.Arm = Arm;
      P.Seed = Mix.next();
      // Mutate the preemption knob along the ladder from the arm's
      // cursor, drifting upward (occasionally two steps): more
      // preemptions = more interleavings sampled per run, the direction
      // §3.1 says schedule-dependent races hide in. The blind drift
      // stops one rung short of the top: measured curves
      // (EXPERIMENTS.md) show window- and channel-shaped patterns
      // DEGRADE at the extreme rung, so the walk only lands there when
      // the caller's base options start there.
      size_t Idx = ArmCursor[Arm];
      size_t Cap = preemptLadder().size() - 2;
      double Draw = Planner.nextDouble();
      if (Draw < 0.35)
        Idx = std::min(Idx + 1, std::max(Idx, Cap));
      else if (Draw < 0.55)
        Idx = std::min(Idx + 2, std::max(Idx, Cap));
      else if (Draw >= 0.8 && Idx > 0)
        --Idx;
      ArmCursor[Arm] = Idx;
      P.Prob = preemptLadder()[Idx];
      Plan.push_back(P);
    }

    // Execute the round: workers pull slots from a shared cursor and
    // write into their slot — completion order never matters.
    std::vector<RunRecord> Records(Plan.size());
    std::atomic<size_t> Cursor{0};
    auto Work = [&](obs::Registry &Reg, obs::TimelineTrack *Track) {
      for (;;) {
        size_t Slot = Cursor.fetch_add(1, std::memory_order_relaxed);
        if (Slot >= Plan.size())
          break;
        obs::TimelineScope SlotSpan =
            Track ? obs::TimelineScope(
                        Track, "slot",
                        "\"seed\":" + std::to_string(Plan[Slot].Seed) +
                            ",\"exploit\":" +
                            (Plan[Slot].Exploit ? "true" : "false"))
                  : obs::TimelineScope();
        Records[Slot] = execPlanned(Plan[Slot], Opts, Reg);
      }
    };
    if (Threads == 1 || Plan.size() == 1) {
      Work(*WorkerRegs[0], WorkerTracks[0]);
    } else {
      unsigned Spawn = std::min<size_t>(Threads, Plan.size());
      std::vector<std::thread> Pool;
      Pool.reserve(Spawn);
      for (unsigned I = 0; I < Spawn; ++I)
        Pool.emplace_back(
            [&, I] { Work(*WorkerRegs[I], WorkerTracks[I]); });
      for (std::thread &T : Pool)
        T.join();
    }

    // Merge in planned order (the barrier): aggregation, dedup, and the
    // bandit update all see runs in the same sequence regardless of
    // thread count — the parallel == serial property.
    uint64_t RoundNewFps = 0;
    for (size_t Slot = 0; Slot < Plan.size(); ++Slot) {
      const RunRecord &Rec = Records[Slot];
      ++RunIndex;
      pipeline::SweepResult &R = Result.Sweep;
      ++R.SeedsRun;
      R.SeedsWithRaces += Rec.Run.RaceCount > 0;
      R.SeedsWithLeaks += !Rec.Run.LeakedGoroutines.empty();
      R.SeedsWithPanics += !Rec.Run.Panics.empty();
      R.SeedsDeadlocked += Rec.Run.Deadlocked;
      R.TotalReports += Rec.Run.RaceCount;
      if (Rec.Run.RaceCount > 0 && !Result.FirstRacyRun)
        Result.FirstRacyRun = RunIndex;
      size_t NewFps = 0;
      for (const auto &[Fp, Entry] : Rec.ByFp) {
        pipeline::SweepResult::Finding &F = R.Findings[Fp];
        F.Occurrences += Entry.Occurrences;
        if (F.SampleReport.empty())
          F.SampleReport = Entry.Sample;
        if (Result.FirstHitRun.emplace(Fp, RunIndex).second)
          ++NewFps;
      }
      RoundNewFps += NewFps;
      (Plan[Slot].Exploit ? Result.ExploitRuns : Result.ExploreRuns) += 1;

      if (disturbed(Rec.Run)) {
        // A disturbed run's feature vector describes a half-executed
        // schedule; feeding it to the bandit would poison the arm
        // statistics (and a watchdogged parent would seed exploit
        // children that watchdog too). With FaultPenalty set, the arm
        // that PLANNED a disturbed exploit run is charged negative
        // reward — chronically faulting schedule regions drift to the
        // bottom of the greedy ranking instead of staying "unknown".
        ++Result.FaultedRuns;
        if (Opts.FaultPenalty > 0.0 && Plan[Slot].Arm != SIZE_MAX) {
          size_t Arm = Plan[Slot].Arm;
          ++Arms[Arm].Pulls;
          Arms[Arm].TotalReward -= Opts.FaultPenalty;
          ++Result.FaultPenalties;
          if (SweepReg)
            obs::inc(SweepReg->counter(
                "grs_sweep_fault_penalties_total",
                {{"class", faultClassName(classifyRunFault(Rec.Run))}}));
        }
        continue;
      }

      // Feed the bandit.
      double Reward = rewardOf(Rec, NewFps);
      size_t Bucket = featureBucket(Rec.Features);
      ++Arms[Bucket].Pulls;
      Arms[Bucket].TotalReward += Reward;
      ParentInfo &Best = BestParent[Bucket];
      if (!Best.Valid || Reward > Best.Reward) {
        Best.Valid = true;
        Best.Seed = Plan[Slot].Seed;
        Best.Prob = Plan[Slot].Prob;
        Best.Reward = Reward;
        HaveParent = true;
        // Detection-grade evidence re-anchors the arm's ladder walk to
        // the rung that detected; feature-prior noise does not.
        if (Reward >= 0.5)
          ArmCursor[Bucket] = nearestLadderIndex(Best.Prob);
      }
    }
    ++Result.Rounds;
    obs::inc(MRounds);
    obs::append(MRoundNew, static_cast<double>(RoundNewFps));
  }

  obs::inc(MExplore, Result.ExploreRuns);
  obs::inc(MExploit, Result.ExploitRuns);
  obs::inc(MFaulted, Result.FaultedRuns);
  obs::set(MRatio, Result.Sweep.SeedsRun
                       ? static_cast<double>(Result.ExploitRuns) /
                             static_cast<double>(Result.Sweep.SeedsRun)
                       : 0.0);
  if (SweepReg)
    for (const auto &[Fp, Hit] : Result.FirstHitRun) {
      char Buf[19];
      std::snprintf(Buf, sizeof(Buf), "0x%llx",
                    static_cast<unsigned long long>(Fp));
      SweepReg->gauge("grs_sweep_first_hit_run_index", {{"fp", Buf}})
          ->set(static_cast<double>(Hit));
    }
  return Result;
}

AdaptiveOptions sweep::adaptiveFrom(const pipeline::SweepOptions &S,
                                    Runner Body) {
  AdaptiveOptions A;
  A.FirstSeed = S.FirstSeed;
  A.NumRuns = S.NumSeeds;
  A.Run = S.Run;
  A.Body = std::move(Body);
  A.Threads = 1;
  return A;
}
