//===- sweep/Adaptive.h - Telemetry-guided adaptive seed sweeps -*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Feedback-driven schedule search: the middle point between the uniform
/// seed sweep (pipeline/Sweep.h — cheap, but samples the interleaving
/// space blindly) and CHESS-style systematic exploration
/// (pipeline/Explore.h — complete, but exponential). The paper's §3.1
/// observation that most real races are interleaving-dependent means a
/// uniform sweep pays the same per-run cost for schedules that barely
/// interleave as for the preemption-heavy ones that actually manifest
/// races; related work (Taheri & Gopalakrishnan, PAPERS.md) shows
/// perturbation-guided search finds Go concurrency bugs far faster.
///
/// The adaptive sweep runs seeds in ROUNDS:
///
///  * every run is probed through a per-worker obs::Registry, and its
///    schedule FEATURE VECTOR (preemptions, context switches, blocked
///    wakeups, channel-op mix, select ready-arm entropy) is extracted
///    from instrument deltas — no detector changes;
///  * completed runs land in feature BUCKETS (preemption-rate band ×
///    select-entropy band), the arms of an epsilon-greedy multi-armed
///    bandit whose reward favors new §3.3.1 fingerprints, racy runs,
///    and — before anything has been detected — a small prior toward
///    high-preemption / high-entropy schedules;
///  * each round after the first splits its slots between EXPLORE runs,
///    which consume the base seed range in ascending order exactly like
///    pipeline::sweep, and EXPLOIT runs, which derive child seeds from
///    the best parent of the bandit's chosen bucket and mutate the
///    preemption probability one step along a fixed ladder (the knob
///    that actually moves schedule features; a derived seed alone lands
///    in an unrelated RNG stream).
///
/// Determinism contract (tested in AdaptiveSweepTest):
///  * ExploitWeight = 0 makes every slot an explore slot, so the result
///    is IDENTICAL (operator==) to pipeline::sweep on the same options;
///  * planning is serial (a support::Rng stream seeded by PlannerSeed),
///    workers fill a slot-indexed record vector through an atomic
///    cursor, and records are merged in planned run order — so the
///    result is bit-identical for any Threads value, parallel == serial.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SWEEP_ADAPTIVE_H
#define GRS_SWEEP_ADAPTIVE_H

#include "obs/Metrics.h"
#include "pipeline/Sweep.h"

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace grs {
namespace sweep {

/// A program under sweep (see pipeline::Runner).
using Runner = pipeline::Runner;

/// Schedule features of one run, extracted from `grs_rt_*` instrument
/// deltas around the run (see probeRun).
struct FeatureVector {
  uint64_t Preemptions = 0;
  uint64_t CtxSwitches = 0;
  /// Blocked-then-woken parkings (grs_rt_blocks_total).
  uint64_t Blocks = 0;
  uint64_t Steps = 0;
  uint64_t ChanSends = 0;
  uint64_t ChanRecvs = 0;
  uint64_t ChanCloses = 0;
  uint64_t Selects = 0;
  /// Shannon entropy (bits) of the select ready-arm histogram deltas; 0
  /// when the run resolved no selects or always saw the same arm count.
  double SelectEntropy = 0.0;

  /// Preemptions per scheduling step — the knob-sensitivity signal the
  /// bandit's prior climbs.
  double preemptRate() const {
    return Steps ? static_cast<double>(Preemptions) /
                       static_cast<double>(Steps)
                 : 0.0;
  }
  uint64_t chanOps() const { return ChanSends + ChanRecvs + ChanCloses; }

  bool operator==(const FeatureVector &) const = default;
};

/// Runs \p Run once with metrics probed into \p Reg and extracts the
/// run's FeatureVector from instrument deltas (so a long-lived registry
/// accumulating many runs still yields per-run features). Exposed
/// separately so feature extraction is unit-testable against hand-built
/// bodies with known schedules.
rt::RunResult probeRun(rt::RunOptions Opts, const Runner &Run,
                       obs::Registry &Reg, FeatureVector &Features);

/// The preemption-probability ladder exploit runs mutate along.
const std::vector<double> &preemptLadder();

/// Bandit arm of a run: preemption-rate band x select-entropy band.
size_t featureBucket(const FeatureVector &F);
size_t numFeatureBuckets();

struct AdaptiveOptions {
  /// Base seed range explored uniformly (ascending), exactly the
  /// pipeline::SweepOptions contract.
  uint64_t FirstSeed = 1;
  /// Total run budget, explore + exploit.
  uint64_t NumRuns = 50;
  /// Runs per round; the planning barrier between feedback updates.
  /// Small rounds matter: round 0 is an all-explore (uniform) prefix,
  /// and every round pays ExploitWeight only AFTER its barrier, so the
  /// round size bounds how early feedback can start paying.
  size_t RoundSize = 2;
  /// Fraction of each round (after round 0) given to exploit runs;
  /// 0 = pure uniform sweep (the parity case).
  double ExploitWeight = 0.7;
  /// Epsilon-greedy exploration among bandit arms: probability of
  /// sampling an arm weighted toward the under-pulled instead of taking
  /// the best-mean arm.
  double Epsilon = 0.15;
  /// Seed of the planner's RNG stream (arm picks, ladder mutations).
  /// Planning is serial, so this fully determines the schedule of every
  /// exploit run given the run records.
  uint64_t PlannerSeed = 1;
  /// Worker threads; 0 = hardware concurrency. The result is
  /// bit-identical regardless.
  unsigned Threads = 1;
  /// Tries per planned run when the run is DISTURBED — the watchdog
  /// fired or a foreign C++ exception crossed the fiber boundary (step
  /// limits are a scheduling verdict here, as before). 1 (the default)
  /// keeps the pre-hardening behavior exactly. Whatever the last attempt
  /// returns is the run's record; disturbed records still count toward
  /// the aggregate (the budget is runs, not successes) but are excluded
  /// from bandit feedback — a half-executed schedule's feature vector
  /// would poison the arm statistics. See AdaptiveResult::FaultedRuns.
  uint32_t MaxAttempts = 1;
  /// Reward subtracted from the PLANNED arm of an exploit run that is
  /// still disturbed after MaxAttempts tries. 0 (the default) keeps the
  /// PR-4 behavior exactly: disturbed runs are merely excluded from
  /// feedback. Positive values close the loop on the fault taxonomy
  /// (sweep::FaultClass): an arm whose schedule region chronically
  /// watchdogs / throws / dies gets its mean reward pushed DOWN with
  /// every fault, so the greedy branch stops returning to it instead of
  /// treating it as merely unknown. Explore runs are never penalized —
  /// they are not the bandit's choice.
  double FaultPenalty = 0.0;
  /// Base options applied to every run (Seed, PreemptProbability for
  /// exploit runs, OnReport, and Metrics are overwritten per run).
  rt::RunOptions Run;
  /// The program under sweep. Required.
  Runner Body;
  /// Optional registry for the sweep's own `grs_sweep_*` instruments
  /// (rounds, explore/exploit split, first-hit run indices). Distinct
  /// from the per-worker probe registries the feature vectors use.
  obs::Registry *Metrics = nullptr;
  /// Optional flight recorder (borrowed): the planner records one
  /// "round" span per planning/merge cycle on the "adaptive-planner"
  /// track, and each worker records "slot" spans on its own
  /// "adaptive-worker-<i>" track. Recording never touches the planner
  /// RNG or the probe registries, so parallel == serial is preserved.
  obs::Timeline *Timeline = nullptr;
};

struct AdaptiveResult {
  /// Aggregate in pipeline::sweep's shape (SeedsRun counts runs; exploit
  /// runs are "seeds" too). With ExploitWeight 0 this equals
  /// pipeline::sweep on the same options.
  pipeline::SweepResult Sweep;
  uint64_t Rounds = 0;
  uint64_t ExploreRuns = 0;
  uint64_t ExploitRuns = 0;
  /// 1-based index (in planned run order) of the first racy run; 0 when
  /// no run raced. The benchmark's runs-to-first-detection.
  uint64_t FirstRacyRun = 0;
  /// Fingerprint -> 1-based run index of its first occurrence.
  std::map<uint64_t, uint64_t> FirstHitRun;
  /// Runs still disturbed (watchdog / foreign exception) after
  /// MaxAttempts tries: counted in the aggregate, excluded from bandit
  /// feedback, mirrored to grs_sweep_faulted_runs_total.
  uint64_t FaultedRuns = 0;
  /// Fault penalties applied to bandit arms (disturbed exploit runs with
  /// FaultPenalty > 0); mirrored by class to
  /// grs_sweep_fault_penalties_total{class=...}.
  uint64_t FaultPenalties = 0;

  bool operator==(const AdaptiveResult &) const = default;
};

/// Runs the adaptive sweep. See file comment.
AdaptiveResult adaptive(const AdaptiveOptions &Opts);

//===----------------------------------------------------------------------===//
// Plug-in constructors for the existing sweep engines' option structs
//===----------------------------------------------------------------------===//

/// Adaptive options over the same seed range/base options as a serial
/// pipeline::sweep of \p S (Threads = 1).
AdaptiveOptions adaptiveFrom(const pipeline::SweepOptions &S, Runner Body);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_ADAPTIVE_H
