//===- pipeline/Deployment.h - Six-month deployment simulator ---*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §3.4/§3.5 deployment as a mechanism-level simulation. Each day
/// (Figure 2's architecture):
///
///   snapshot -> run all unit tests with race detection -> de-duplicate ->
///   file tasks to heuristically-determined owners -> developers fix.
///
/// The phenomena the paper reports all EMERGE from mechanisms rather than
/// being drawn as curves:
///
///  * non-deterministic detection: every latent race carries a
///    per-run manifestation probability (§3.1 attribute 2);
///  * ramped release: "we slowly ramped up the number of data races we
///    reported ... The sudden surge in July is a result of finally
///    opening the flood gates" (Figure 4);
///  * shepherding: fix rates are high while the authors shepherd
///    assignees, then drop ("the authors disengaged from shepherding");
///  * test churn: "enabling and disabling of tests by developers"
///    (Figure 3's fluctuations);
///  * shared root causes: fixes land as patches that may close several
///    sibling races at once ("790 unique patches ... ~78% unique root
///    causes");
///  * fresh introductions: "about five new race reports, on average,
///    every day" arrive as code changes.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_PIPELINE_DEPLOYMENT_H
#define GRS_PIPELINE_DEPLOYMENT_H

#include "pipeline/BugDatabase.h"
#include "pipeline/Monorepo.h"
#include "pipeline/Ownership.h"
#include "support/Stats.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace grs {

namespace obs {
class Registry;
class Timeline;
} // namespace obs

namespace pipeline {

/// How detection is deployed (§3.2's design space).
enum class DeployMode : uint8_t {
  /// Option III, what the paper shipped: periodic post-facto snapshot
  /// runs + bug filing.
  PostFacto,
  /// Remark 1's counterfactual: dynamic race detection additionally runs
  /// at PR time and BLOCKS newly introduced races from landing — to the
  /// extent their schedule-dependent manifestation lets CI see them.
  CiBlocking,
};

struct DeploymentConfig {
  uint64_t Seed = 1;
  /// April through September, inclusive: ~183 days.
  uint32_t Days = 183;
  /// Latent races present in the codebase when the rollout starts.
  uint32_t InitialLatentRaces = 1400;
  /// Mean Poisson arrival of newly introduced latent races per day.
  double NewRacesPerDay = 5.0;
  /// Shepherding phase: authors drive assignees to fix (April-June).
  uint32_t ShepherdingEndDay = 80;
  /// Day the ramp ends and ALL detected races are filed ("July").
  uint32_t FloodgateDay = 95;
  /// Maximum new tasks filed per day during the ramp.
  uint32_t RampFilingsPerDay = 14;
  /// Daily per-task fix probability while shepherded / after.
  double ShepherdedFixProb = 0.030;
  double DisengagedFixProb = 0.0018;
  /// A race counts as "outstanding" (Figure 3) if it is unfixed and the
  /// daily runs saw it manifest within this many days.
  uint32_t OutstandingWindow = 14;
  /// Fraction of races that manifest on (almost) every run; the rest are
  /// flaky with low per-run manifestation probability.
  double StableRaceFraction = 0.55;
  double FlakyManifestMean = 0.18;
  /// Daily probability a race's covering test is disabled / re-enabled.
  double TestDisableProb = 0.002;
  double TestReenableProb = 0.05;
  /// Root-cause clustering: probability that a new latent race joins the
  /// previous race's patch cluster (drives patches/fixes ~ 0.78).
  double ClusterContinueProb = 0.18;
  /// Probability a "fix" does not actually eliminate the race, so the
  /// same hash is re-filed later (§3.3.1 refiling).
  double BadFixProb = 0.04;
  /// §3.5's operational reality: over six months of daily runs across
  /// 100K+ real unit tests, not every test run is clean — tests hang,
  /// crash, or fail for infrastructure reasons, and the pipeline
  /// survives because each loss is contained to that test's run. The
  /// three rates below are PER covering-test PER day; a lost run means
  /// the race cannot manifest that day (it shows up as extra Figure 3
  /// jitter and slightly delayed first detection, which is exactly what
  /// the paper's curves contain). All default 0.0, and the fault model
  /// consumes RNG draws only when some rate is positive, so default
  /// configs reproduce the fault-free simulation bit-for-bit.
  double TestHangProb = 0.0;   ///< Test hangs; the fleet watchdog reaps it.
  double TestCrashProb = 0.0;  ///< Test binary crashes (foreign fault).
  double FlakyInfraProb = 0.0; ///< Infra flake; the result is discarded.
  /// Process-LETHAL faults in the daily snapshot runs: the test does not
  /// merely fail, it takes its host process down (a wild write's SIGSEGV,
  /// heap exhaustion's OOM kill — sweep::pooled's fault classes, seen
  /// from the simulator's altitude). Per covering-test per day, and like
  /// the three rates above the draws are consumed only when some lethal
  /// rate is positive — configs using only the non-lethal fault model
  /// reproduce their pre-lethal results bit-for-bit.
  ///
  /// What a lethal death COSTS depends on IsolateTestRuns: with
  /// isolation (the sweep::pooled deployment), the dead process was a
  /// sandboxed worker, the loss is contained to that one run, and the
  /// supervisor respawns for the next slot; without isolation the dying
  /// test takes the whole snapshot harness with it and the REMAINDER of
  /// that day's snapshot is lost — exactly the blast-radius difference
  /// the isolation layer exists to buy.
  double TestSegvProb = 0.0; ///< Lethal signal (wild write, stack overflow).
  double TestOomProb = 0.0;  ///< Heap exhaustion; the kernel OOM-kills.
  /// Run the daily snapshot under fork-per-slot process isolation.
  bool IsolateTestRuns = false;
  /// Run the daily snapshot's schedule sampling through sweep::adaptive's
  /// bandit planner instead of the uniform sweep. Only effective when
  /// IsolateTestRuns is set: the adaptive executor lives inside the
  /// fork-per-slot deployment (its exploit runs re-execute slots with
  /// mutated preemption ladders, which only the isolation supervisor can
  /// schedule), so without isolation the planner stays off and the
  /// simulation is bit-identical to the uniform baseline. At simulator
  /// altitude the planner's effect is a manifestation boost for the
  /// schedule-dependent (flaky) races — the bucket the bandit's reward
  /// concentrates exploit runs on — while stable races, already at
  /// ~certain detection, gain nothing.
  bool AdaptiveSnapshot = false;
  /// Multiplier applied to a flaky race's per-run manifestation
  /// probability when the adaptive planner is active (clamped to 1.0).
  /// 1.35 matches the measured uplift of exploit-heavy rounds over
  /// uniform explore at default ExploitWeight (EXPERIMENTS.md).
  double AdaptiveBoost = 1.35;
  /// Deployment mode (see DeployMode).
  DeployMode Mode = DeployMode::PostFacto;
  /// CiBlocking only: how many detector runs the PR gate executes; a
  /// race is caught (and blocked) with probability
  /// 1 - (1 - manifestProb)^CiRunsPerChange.
  unsigned CiRunsPerChange = 2;
  /// Optional metrics registry (borrowed; must outlive the simulator).
  /// The simulator records its daily series and counters as
  /// `grs_pipeline_*` instruments. When null — or when the
  /// registry is disabled — the simulator falls back to a private enabled
  /// registry, because the instruments double as its own bookkeeping (the
  /// DeploymentOutcome series are read back from them).
  obs::Registry *Metrics = nullptr;
  /// Optional flight recorder (borrowed): each simulated day records a
  /// "day" span on the "deployment" track with the per-phase spans
  /// (arrivals, test-churn, snapshot, filing, triage, fixing, telemetry)
  /// nested inside it. Recording never consumes simulation RNG.
  obs::Timeline *Timeline = nullptr;
  MonorepoConfig Repo;
};

/// Aggregate result: the Figure 3/4 series plus §3.5 summary statistics.
struct DeploymentOutcome {
  support::Series Outstanding;         ///< Figure 3.
  support::Series CreatedCumulative;   ///< Figure 4, "found".
  support::Series ResolvedCumulative;  ///< Figure 4, "fixed".
  uint64_t TotalDetectedRaces = 0;     ///< Distinct tasks ever filed.
  uint64_t TotalFixedTasks = 0;
  uint64_t UniquePatches = 0;
  uint64_t UniqueFixers = 0;
  uint64_t SuppressedDuplicates = 0;
  double AvgNewReportsPerDayLate = 0;  ///< Post-floodgate fresh reports.
  double PatchesPerFixedTask = 0;      ///< ~0.78 in the paper.
  /// CiBlocking only: new races blocked at PR time / leaked through the
  /// gate because they did not manifest in the CI runs (§3.2's
  /// non-determinism objection, quantified).
  uint64_t PreventedAtCi = 0;
  uint64_t LeakedPastCi = 0;
  /// Fixed tasks broken down by root-cause category (sampled from the
  /// Table 2/3 empirical distribution at race creation): category index
  /// is corpus::Category's underlying value.
  std::vector<uint64_t> FixedByCategory;
  /// Open tasks re-routed after their assignee left the organization
  /// ("defects get triaged and eventually get reassigned to appropriate
  /// owners", §3.2.1).
  uint64_t Reassignments = 0;
  /// Fault-model losses in the daily snapshot runs (0 unless the
  /// TestHangProb / TestCrashProb / FlakyInfraProb rates are set):
  /// test-run executions lost to hangs, crashes, and infra flakes.
  uint64_t SnapshotHangs = 0;
  uint64_t SnapshotCrashes = 0;
  uint64_t SnapshotFlaky = 0;
  /// Lethal-fault losses (0 unless TestSegvProb / TestOomProb are set):
  /// test runs killed by a lethal signal / OOM.
  uint64_t SnapshotSegvs = 0;
  uint64_t SnapshotOoms = 0;
  /// IsolateTestRuns=true: children respawned after a lethal death (one
  /// per death — the per-run containment the isolation layer buys).
  uint64_t IsolationRespawns = 0;
  /// AdaptiveSnapshot=true (with isolation): snapshot runs whose
  /// manifestation draw was boosted by the adaptive planner (flaky races
  /// only; stable races never need the bandit's help).
  uint64_t AdaptiveBoostedRuns = 0;
  /// IsolateTestRuns=false: days whose snapshot was cut short because a
  /// lethal test death took the un-isolated harness down with it.
  uint64_t AbortedSnapshotDays = 0;
};

/// See file comment.
class DeploymentSimulator {
public:
  explicit DeploymentSimulator(const DeploymentConfig &Config);
  ~DeploymentSimulator();

  /// Runs the full simulation and returns the outcome. The internal bug
  /// database remains inspectable afterwards.
  DeploymentOutcome run();

  const BugDatabase &bugs() const { return Bugs; }
  const MonorepoModel &repo() const { return Repo; }

  /// The registry holding this deployment's `grs_pipeline_*` instruments:
  /// DeploymentConfig::Metrics when that is an enabled registry, else a
  /// lazily created private one. The Figure 3/4 benches read their series
  /// from here instead of recounting.
  obs::Registry &metrics();

private:
  struct LatentRace;

  /// Materializes a latent race (synthetic chains over the monorepo).
  LatentRace makeLatentRace(uint32_t Day);

  DeploymentConfig Config;
  support::Rng Rng;
  MonorepoModel Repo;
  OwnershipResolver Resolver;
  BugDatabase Bugs;
  std::vector<LatentRace> Races;
  uint32_t NextClusterId = 0;
  /// Fallback registry when no (enabled) external one is configured.
  std::unique_ptr<obs::Registry> OwnedMetrics;
};

} // namespace pipeline
} // namespace grs

#endif // GRS_PIPELINE_DEPLOYMENT_H
