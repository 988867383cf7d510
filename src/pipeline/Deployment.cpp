//===- pipeline/Deployment.cpp - Six-month deployment simulator ------------===//

#include "pipeline/Deployment.h"

#include "corpus/Sampler.h"
#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "pipeline/Fingerprint.h"

#include <set>

using namespace grs;
using namespace grs::pipeline;

/// One latent data race living in the (simulated) codebase.
struct DeploymentSimulator::LatentRace {
  uint64_t Fingerprint = 0;
  ReportSites Sites;
  /// Per-run manifestation probability (§3.1: detection depends on the
  /// interleavings of that run).
  double ManifestProb = 1.0;
  /// Patch cluster: races sharing a root cause are fixed together.
  uint32_t Cluster = 0;
  /// Root-cause category, sampled from the Table 2/3 distribution.
  uint8_t Category = 0;
  bool Present = true;
  bool TestEnabled = true;
  bool TaskOpen = false;
  TaskId OpenTask = 0;
  bool EverDetected = false;
  uint32_t LastSeenDay = 0;
};

DeploymentSimulator::DeploymentSimulator(const DeploymentConfig &Config)
    : Config(Config), Rng(Config.Seed), Repo([&] {
        MonorepoConfig RepoConfig = Config.Repo;
        RepoConfig.Seed = Config.Seed ^ 0x5eedf00d;
        return RepoConfig;
      }()),
      Resolver(Repo) {}

DeploymentSimulator::~DeploymentSimulator() = default;

obs::Registry &DeploymentSimulator::metrics() {
  if (Config.Metrics && Config.Metrics->enabled())
    return *Config.Metrics;
  if (!OwnedMetrics)
    OwnedMetrics = std::make_unique<obs::Registry>(/*Enabled=*/true);
  return *OwnedMetrics;
}

DeploymentSimulator::LatentRace
DeploymentSimulator::makeLatentRace(uint32_t Day) {
  (void)Day;
  LatentRace Race;

  // Synthesize the two conflicting call chains over the monorepo's
  // function namespace: a root entry point descending (mostly service-
  // locally) to a leaf access.
  FunctionRef RootA = Repo.randomFunction(Rng);
  FunctionRef LeafA = Repo.randomFunctionNear(Rng, RootA);
  FunctionRef RootB = Rng.chance(0.5) ? RootA : Repo.randomFunctionNear(Rng, RootA);
  FunctionRef LeafB = Repo.randomFunctionNear(Rng, RootB);

  NameChain ChainA{Repo.functionName(RootA), Repo.functionName(LeafA)};
  NameChain ChainB{Repo.functionName(RootB), Repo.functionName(LeafB)};
  size_t Middles = Rng.nextBelow(3);
  for (size_t I = 0; I < Middles; ++I)
    ChainA.insert(ChainA.begin() + 1,
                  Repo.functionName(Repo.randomFunctionNear(Rng, RootA)));
  Race.Fingerprint = fingerprintChains(ChainA, ChainB);

  Race.Sites.RootA = RootA.File;
  Race.Sites.RootB = RootB.File;
  Race.Sites.LeafA = LeafA.File;
  Race.Sites.LeafB = LeafB.File;

  // Stable races manifest on (almost) every daily run; the rest are
  // schedule-dependent with a low per-run probability.
  if (Rng.chance(Config.StableRaceFraction))
    Race.ManifestProb = 0.9 + 0.1 * Rng.nextDouble();
  else
    Race.ManifestProb =
        std::min(1.0, Rng.nextDouble() * 2.0 * Config.FlakyManifestMean);

  // Root-cause clustering; cluster mates share their cause's category,
  // fresh causes draw a category from the paper's Table 2/3 mass.
  bool JoinsPrevious =
      !Races.empty() && Rng.chance(Config.ClusterContinueProb);
  if (JoinsPrevious) {
    Race.Cluster = Races.back().Cluster;
    Race.Category = Races.back().Category;
  } else {
    Race.Cluster = NextClusterId++;
    const std::vector<corpus::CategoryCount> &T2 = corpus::table2Counts();
    const std::vector<corpus::CategoryCount> &T3 = corpus::table3Counts();
    std::vector<double> Weights;
    for (const corpus::CategoryCount &Row : T2)
      Weights.push_back(Row.PaperCount);
    for (const corpus::CategoryCount &Row : T3)
      Weights.push_back(Row.PaperCount);
    size_t Pick = Rng.weightedIndex(Weights);
    corpus::Category Cat =
        Pick < T2.size() ? T2[Pick].Cat : T3[Pick - T2.size()].Cat;
    Race.Category = static_cast<uint8_t>(Cat);
  }
  return Race;
}

DeploymentOutcome DeploymentSimulator::run() {
  DeploymentOutcome Outcome;

  // The grs_pipeline_* instruments are the single source of truth for the
  // run's telemetry; the Outcome series/counts are read back from them at
  // the end (metrics() is always an enabled registry, so every handle is
  // non-null).
  obs::Registry &Reg = metrics();
  obs::Timeseries *SOutstanding =
      Reg.timeseries("grs_pipeline_outstanding_races");
  obs::Timeseries *SCreated =
      Reg.timeseries("grs_pipeline_tasks_created_cumulative");
  obs::Timeseries *SResolved =
      Reg.timeseries("grs_pipeline_tasks_resolved_cumulative");
  obs::Counter *CIntroduced =
      Reg.counter("grs_pipeline_races_introduced_total");
  obs::Counter *CFiled = Reg.counter("grs_pipeline_tasks_filed_total");
  obs::Counter *CFixed = Reg.counter("grs_pipeline_tasks_fixed_total");
  obs::Counter *CPatches = Reg.counter("grs_pipeline_patches_total");
  obs::Counter *CDuplicates =
      Reg.counter("grs_pipeline_duplicates_suppressed_total");
  obs::Counter *CReassigned =
      Reg.counter("grs_pipeline_reassignments_total");
  obs::Counter *CCiPrevented = Reg.counter("grs_pipeline_ci_prevented_total");
  obs::Counter *CCiLeaked = Reg.counter("grs_pipeline_ci_leaked_total");
  obs::Gauge *GDedupRatio = Reg.gauge("grs_pipeline_dedup_ratio");
  obs::Gauge *GUniqueFixers = Reg.gauge("grs_pipeline_unique_fixers");
  obs::Counter *CHangs = Reg.counter("grs_pipeline_snapshot_hangs_total");
  obs::Counter *CCrashes =
      Reg.counter("grs_pipeline_snapshot_crashes_total");
  obs::Counter *CFlaky = Reg.counter("grs_pipeline_snapshot_flaky_total");
  obs::Counter *CSegvs = Reg.counter("grs_pipeline_snapshot_segvs_total");
  obs::Counter *COoms = Reg.counter("grs_pipeline_snapshot_ooms_total");
  obs::Counter *CRespawns =
      Reg.counter("grs_pipeline_isolation_respawns_total");
  obs::Counter *CAdaptiveBoosted =
      Reg.counter("grs_pipeline_adaptive_boosted_runs_total");
  obs::Counter *CAbortedDays =
      Reg.counter("grs_pipeline_snapshot_aborted_days_total");
  obs::Gauge *GSnapshotLoss =
      Reg.gauge("grs_pipeline_snapshot_loss_ratio");

  // Flight recorder: the "deployment" track times each day and its
  // phases, so the Figure 2 architecture is visible as a timeline.
  obs::TimelineTrack *Track =
      Config.Timeline ? Config.Timeline->track("deployment") : nullptr;

  // The fault model consumes RNG draws only when some rate is positive:
  // Rng::chance always advances the stream, so an unconditional draw
  // would perturb every downstream decision even at rate 0.0 and break
  // the default config's bit-for-bit reproducibility.
  const bool FaultModel = Config.TestHangProb > 0.0 ||
                          Config.TestCrashProb > 0.0 ||
                          Config.FlakyInfraProb > 0.0;
  // The lethal model is gated separately so configs that enable only the
  // non-lethal rates keep their exact pre-lethal RNG stream.
  const bool LethalModel =
      Config.TestSegvProb > 0.0 || Config.TestOomProb > 0.0;
  // The bandit planner rides the fork-per-slot deployment; without
  // isolation it stays off and the stream is the uniform baseline's.
  // With it on, chance() still consumes exactly one draw per considered
  // run (only the probability changes), so the draw COUNT matches the
  // uniform snapshot and divergence comes solely from boosted verdicts.
  const bool Adaptive = Config.AdaptiveSnapshot && Config.IsolateTestRuns;
  uint64_t SnapshotRunsConsidered = 0;

  Races.reserve(Config.InitialLatentRaces + 1024);
  for (uint32_t I = 0; I < Config.InitialLatentRaces; ++I)
    Races.push_back(makeLatentRace(0));

  std::set<DevId> Fixers;
  uint64_t LateCreated = 0;
  uint32_t LateDays = 0;

  for (uint32_t Day = 0; Day < Config.Days; ++Day) {
    obs::TimelineScope DayTl =
        Track ? obs::TimelineScope(Track, "day",
                                   "\"day\":" + std::to_string(Day))
              : obs::TimelineScope();
    // (1) Code change lands: new latent races are introduced. In
    // CiBlocking mode the PR gate runs the detector first; a race lands
    // only if it stays dormant in every CI run — the §3.2 flakiness
    // objection made quantitative.
    {
      obs::TimelineScope Tl(Track, "arrivals");
      uint64_t Arrivals = Rng.poisson(Config.NewRacesPerDay);
      for (uint64_t I = 0; I < Arrivals; ++I) {
        LatentRace Race = makeLatentRace(Day);
        if (Config.Mode == DeployMode::CiBlocking) {
          bool Caught = false;
          for (unsigned Run = 0; Run < Config.CiRunsPerChange && !Caught;
               ++Run)
            Caught = Rng.chance(Race.ManifestProb);
          if (Caught) {
            CCiPrevented->inc();
            continue; // Author fixes before merging; never lands.
          }
          CCiLeaked->inc();
        }
        CIntroduced->inc();
        Races.push_back(std::move(Race));
      }
    }

    // (2) Developers enable/disable tests; the organization churns.
    {
      obs::TimelineScope Tl(Track, "test-churn");
      for (LatentRace &Race : Races) {
        if (Race.TestEnabled) {
          if (Rng.chance(Config.TestDisableProb))
            Race.TestEnabled = false;
        } else if (Rng.chance(Config.TestReenableProb)) {
          Race.TestEnabled = true;
        }
      }
      Repo.advanceDay(Rng);
    }

    // (3) The daily snapshot run: execute all unit tests with the race
    // detector on; collect manifested races.
    std::vector<size_t> Manifested;
    {
      obs::TimelineScope Tl(Track, "snapshot");
      bool DayAborted = false;
      for (size_t I = 0; I < Races.size() && !DayAborted; ++I) {
        LatentRace &Race = Races[I];
        if (!Race.Present || !Race.TestEnabled)
          continue;
        if (FaultModel || LethalModel)
          ++SnapshotRunsConsidered;
        if (LethalModel) {
          bool Segv = Rng.chance(Config.TestSegvProb);
          bool Oom = !Segv && Rng.chance(Config.TestOomProb);
          if (Segv)
            CSegvs->inc();
          if (Oom)
            COoms->inc();
          if (Segv || Oom) {
            if (Config.IsolateTestRuns) {
              // Fork-per-slot isolation: only the dead child's run is
              // lost; the supervisor respawns and the snapshot marches
              // on to the next test.
              CRespawns->inc();
              continue;
            }
            // Un-isolated: the dying test kills the snapshot harness,
            // and every test after it is lost for the day.
            CAbortedDays->inc();
            DayAborted = true;
            continue;
          }
        }
        if (FaultModel) {
          // A lost run is contained to this test, today: the race simply
          // cannot manifest until tomorrow's snapshot — the §3.5 fleet's
          // per-run quarantine, seen from the simulator's altitude.
          if (Rng.chance(Config.TestHangProb)) {
            CHangs->inc();
            continue;
          }
          if (Rng.chance(Config.TestCrashProb)) {
            CCrashes->inc();
            continue;
          }
          if (Rng.chance(Config.FlakyInfraProb)) {
            CFlaky->inc();
            continue;
          }
        }
        double ManifestProb = Race.ManifestProb;
        if (Adaptive && Race.ManifestProb < 0.5) {
          // Flaky bucket: exploit runs concentrate schedule samples
          // here, which at this altitude is a higher per-day chance of
          // catching the interleaving. Stable races are left alone.
          ManifestProb = std::min(1.0, Race.ManifestProb * Config.AdaptiveBoost);
          CAdaptiveBoosted->inc();
        }
        if (!Rng.chance(ManifestProb))
          continue;
        Race.EverDetected = true;
        Race.LastSeenDay = Day;
        if (Race.TaskOpen) {
          // Same hash already open: suppressed duplicate (§3.3.1).
          Bugs.fileReport(Race.Fingerprint, 0, Day, {});
          continue;
        }
        Manifested.push_back(I);
      }
    }

    // (4) File tasks, throttled during the ramp-up period.
    {
      obs::TimelineScope Tl(Track, "filing");
      uint64_t FilingBudget = Day >= Config.FloodgateDay
                                  ? Manifested.size()
                                  : Config.RampFilingsPerDay;
      uint32_t DayCreated = 0;
      for (size_t Index : Manifested) {
        if (FilingBudget == 0)
          break;
        LatentRace &Race = Races[Index];
        Resolution Who = Resolver.resolve(Race.Sites, Rng);
        FileOutcome Filed =
            Bugs.fileReport(Race.Fingerprint, Who.Assignee, Day,
                            std::move(Who.Log));
        if (Filed.Created) {
          Race.TaskOpen = true;
          Race.OpenTask = Filed.Id;
          CFiled->inc();
          --FilingBudget;
          ++DayCreated;
        }
      }
      if (Day >= Config.FloodgateDay + 30) {
        LateCreated += DayCreated;
        ++LateDays;
      }
    }

    // (4b) Triage: open tasks whose assignee has left are re-routed to
    // an active member of the owning team (weekly pass).
    if (Day % 7 == 0) {
      obs::TimelineScope Tl(Track, "triage");
      for (TaskId Id : Bugs.openTasks()) {
        Task &T = Bugs.task(Id);
        if (Repo.isActive(T.Assignee))
          continue;
        DevId NewOwner = Repo.anyActiveTeamMember(
            static_cast<uint32_t>(T.Assignee) %
            static_cast<uint32_t>(Config.Repo.NumTeams));
        T.AssignmentLog.push_back(
            "day " + std::to_string(Day) + ": " +
            Repo.developerName(T.Assignee) +
            " left; triaged to " + Repo.developerName(NewOwner));
        T.Assignee = NewOwner;
        CReassigned->inc();
      }
    }

    // (5) Developers fix open tasks; one patch may close a whole
    // root-cause cluster; some fixes do not stick.
    {
      obs::TimelineScope Tl(Track, "fixing");
      double FixProb = Day <= Config.ShepherdingEndDay
                           ? Config.ShepherdedFixProb
                           : Config.DisengagedFixProb;
      std::vector<TaskId> ToFix;
      for (TaskId Id : Bugs.openTasks())
        if (Rng.chance(FixProb))
          ToFix.push_back(Id);

      for (TaskId Id : ToFix) {
        if (Bugs.task(Id).Status == TaskStatus::Fixed)
          continue; // Already closed by a sibling's patch today.
        CPatches->inc();
        Fixers.insert(Bugs.task(Id).Assignee);

        // Find the race this task tracks, then close its whole cluster.
        uint32_t Cluster = ~0u;
        for (LatentRace &Race : Races)
          if (Race.TaskOpen && Race.OpenTask == Id)
            Cluster = Race.Cluster;
        for (LatentRace &Race : Races) {
          if (Race.Cluster != Cluster || !Race.Present)
            continue;
          if (Race.TaskOpen) {
            Bugs.markFixed(Race.OpenTask, Day);
            CFixed->inc();
            Race.TaskOpen = false;
            if (Race.Category >= Outcome.FixedByCategory.size())
              Outcome.FixedByCategory.resize(Race.Category + 1, 0);
            ++Outcome.FixedByCategory[Race.Category];
          }
          // Most fixes eliminate the race; a few do not stick, and the
          // same hash will be re-filed once re-detected.
          if (!Rng.chance(Config.BadFixProb))
            Race.Present = false;
        }
      }
    }

    // (6) Record the day's telemetry. "Outstanding" is the detector's
    // rolling view: unfixed races the daily runs saw recently — so the
    // series fluctuates with flaky manifestation and test churn, as in
    // Figure 3.
    {
      obs::TimelineScope Tl(Track, "telemetry");
      uint64_t Outstanding = 0;
      for (const LatentRace &Race : Races) {
        if (!Race.Present || !Race.EverDetected)
          continue;
        if (Day - Race.LastSeenDay <= Config.OutstandingWindow)
          ++Outstanding;
      }
      SOutstanding->append(static_cast<double>(Outstanding));
      SCreated->append(static_cast<double>(Bugs.numCreated()));
      SResolved->append(static_cast<double>(Bugs.numFixed()));
      CDuplicates->mirror(Bugs.numSuppressedDuplicates());
      uint64_t Reports = Bugs.numCreated() + Bugs.numSuppressedDuplicates();
      GDedupRatio->set(Reports ? static_cast<double>(
                                     Bugs.numSuppressedDuplicates()) /
                                     static_cast<double>(Reports)
                               : 0.0);
      GUniqueFixers->set(static_cast<double>(Fixers.size()));
    }
  }

  // Read the outcome back from the instruments (the series get their
  // legacy display names so downstream rendering is unchanged).
  Outcome.Outstanding = SOutstanding->toSeries("outstanding races");
  Outcome.CreatedCumulative =
      SCreated->toSeries("tasks created (cumulative)");
  Outcome.ResolvedCumulative =
      SResolved->toSeries("tasks resolved (cumulative)");
  Outcome.TotalDetectedRaces = Bugs.numCreated();
  Outcome.TotalFixedTasks = CFixed->value();
  Outcome.UniquePatches = CPatches->value();
  Outcome.UniqueFixers = Fixers.size();
  Outcome.SuppressedDuplicates = Bugs.numSuppressedDuplicates();
  Outcome.PreventedAtCi = CCiPrevented->value();
  Outcome.LeakedPastCi = CCiLeaked->value();
  Outcome.Reassignments = CReassigned->value();
  Outcome.AvgNewReportsPerDayLate =
      LateDays ? static_cast<double>(LateCreated) / LateDays : 0.0;
  Outcome.PatchesPerFixedTask =
      Outcome.TotalFixedTasks ? static_cast<double>(Outcome.UniquePatches) /
                                    static_cast<double>(Outcome.TotalFixedTasks)
                              : 0.0;
  Outcome.SnapshotHangs = CHangs->value();
  Outcome.SnapshotCrashes = CCrashes->value();
  Outcome.SnapshotFlaky = CFlaky->value();
  Outcome.SnapshotSegvs = CSegvs->value();
  Outcome.SnapshotOoms = COoms->value();
  Outcome.IsolationRespawns = CRespawns->value();
  Outcome.AdaptiveBoostedRuns = CAdaptiveBoosted->value();
  Outcome.AbortedSnapshotDays = CAbortedDays->value();
  uint64_t SnapshotLost = Outcome.SnapshotHangs + Outcome.SnapshotCrashes +
                          Outcome.SnapshotFlaky + Outcome.SnapshotSegvs +
                          Outcome.SnapshotOoms;
  GSnapshotLoss->set(SnapshotRunsConsidered
                         ? static_cast<double>(SnapshotLost) /
                               static_cast<double>(SnapshotRunsConsidered)
                         : 0.0);
  return Outcome;
}
