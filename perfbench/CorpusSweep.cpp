//===- perfbench/CorpusSweep.cpp - The corpus-sweep workload ---------------===//
//
// The paper's daily-sweep unit of work: every corpus pattern, racy and
// fixed, plus every .grs port, each swept over one seed range with
// sweep::resilient (Threads = 2, watchdog unarmed). One closed-loop client
// submits the jobs back to back, round after round.
//
// Oracle (after the timed window): each job's aggregate must equal the
// serial pipeline::sweep aggregation over the same seeds (operator==,
// rendered sample reports included); a port's fingerprint set must equal
// LangPort::ExpectedFps; a fixed variant must sweep clean. The same serial
// pass counts the instrumented accesses and scheduler steps of one job
// through a metrics registry, which prices accesses_per_s.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "corpus/Patterns.h"
#include "lang/Interp.h"
#include "lang/Ports.h"
#include "obs/Metrics.h"
#include "pipeline/Sweep.h"
#include "support/Rng.h"
#include "sweep/Resilient.h"

#include <set>

using namespace grs;

namespace perfbench {
namespace {

/// Seeds per job. Enough that every port manifests each of its expected
/// fingerprints on any seed range (the rarest port manifests on about a
/// third of its schedules), and enough work per job that the two worker
/// threads resilient() starts and joins per call are a small share of the
/// job: on a shared 4-CPU virtual machine, 512-seed jobs completed about
/// 8% more runs per second than 64-seed jobs.
constexpr uint64_t SeedsPerJob = 512;
constexpr int SetupRounds = 7;

struct CorpusJob {
  std::string Name;
  sweep::Runner Run;
  /// Interpreted ports keep their program for the pipeline::sweep oracle.
  std::shared_ptr<const lang::Program> Prog;
  const lang::LangPort *Port = nullptr;
  bool Fixed = false;
};

struct CorpusInputs {
  uint64_t FirstSeed = 1;
  std::vector<CorpusJob> Jobs;
};

/// Set-up: sample the seed range from the workload seed, load and parse
/// every port, build the job list, and run each job's first schedule once
/// so lazy initialisation is paid before timing starts.
bool buildInputs(uint64_t Seed, CorpusInputs &In, std::string &Error) {
  support::Rng R(Seed);
  In.FirstSeed = 1 + R.nextBelow(1'000'000);
  In.Jobs.clear();
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    In.Jobs.push_back({P.Id + "/racy", P.RunRacy, nullptr, nullptr, false});
    In.Jobs.push_back({P.Id + "/fixed", P.RunFixed, nullptr, nullptr, true});
  }
  for (const lang::LangPort &Port : lang::langPorts()) {
    std::string Path = lang::findTestdataPath(Port.File);
    lang::ParseResult Parsed = lang::loadProgramFile(Path, &Error);
    if (Path.empty() || !Parsed.ok()) {
      Error = "cannot load port " + Port.File + ": " + Error;
      return false;
    }
    std::shared_ptr<const lang::Program> Prog = Parsed.Prog;
    In.Jobs.push_back(
        {"port:" + Port.Id, lang::runner(Prog), Prog, &Port, Port.RaceFree});
  }
  for (const CorpusJob &J : In.Jobs)
    J.Run(rt::withSeed(In.FirstSeed));
  return true;
}

sweep::ResilientOptions jobOptions(const CorpusInputs &In,
                                   const CorpusJob &J) {
  sweep::ResilientOptions O;
  O.FirstSeed = In.FirstSeed;
  O.NumSeeds = SeedsPerJob;
  O.Threads = 2;
  O.Body = J.Run;
  return O;
}

/// pipeline::sweep's serial aggregation over a Runner (corpus patterns
/// host their own Runtime, so they cannot be handed to pipeline::sweep as
/// a plain body).
pipeline::SweepResult serialSweep(const pipeline::SweepOptions &Opts,
                                  const sweep::Runner &Run) {
  pipeline::SweepResult Result;
  for (uint64_t I = 0; I < Opts.NumSeeds; ++I) {
    rt::RunOptions RunOpts = Opts.Run;
    RunOpts.Seed = Opts.FirstSeed + I;
    RunOpts.OnReport = [&Result](const race::Detector &D,
                                 const race::RaceReport &Report) {
      auto &F = Result.Findings[pipeline::raceFingerprint(D.interner(),
                                                          Report)];
      ++F.Occurrences;
      if (F.SampleReport.empty())
        F.SampleReport = race::reportToString(D.interner(), Report);
    };
    rt::RunResult R = Run(RunOpts);
    ++Result.SeedsRun;
    Result.SeedsWithRaces += R.RaceCount > 0;
    Result.SeedsWithLeaks += !R.LeakedGoroutines.empty();
    Result.SeedsWithPanics += !R.Panics.empty();
    Result.SeedsDeadlocked += R.Deadlocked;
    Result.TotalReports += R.RaceCount;
  }
  return Result;
}

uint64_t counterValue(obs::Registry &Reg, const char *Name) {
  return Reg.counter(Name)->value();
}

} // namespace

PhaseResult runCorpusSweep(const Config &Cfg, double Seconds,
                           obs::Timeline *Trace, std::vector<double> &Setup) {
  PhaseResult P;
  CorpusInputs In;
  std::string Error;
  if (!timeSetUp(SetupRounds, Setup,
                 [&] { return buildInputs(Cfg.Seed, In, Error); })) {
    P.fail(Error);
    return P;
  }
  std::vector<sweep::ResilientOptions> Opts;
  for (const CorpusJob &J : In.Jobs)
    Opts.push_back(jobOptions(In, J));

  //===--------------------------------------------------------------------===//
  // Timed closed loop: whole rounds over every job.
  //===--------------------------------------------------------------------===//
  obs::TimelineTrack *Track = Trace ? Trace->track("corpus-client") : nullptr;
  std::vector<sweep::ResilientResult> First(In.Jobs.size());
  uint64_t Rounds = 0;
  uint64_t JobSeq = 0;
  Clock::time_point Start = Clock::now();
  while (Rounds == 0 || secondsSince(Start) < Seconds) {
    for (size_t J = 0; J < In.Jobs.size(); ++J) {
      Clock::time_point T0 = Clock::now();
      sweep::ResilientResult R;
      {
        obs::TimelineScope Span(Track, "sweep.resilient",
                                idArgs("job", JobSeq++));
        R = sweep::resilient(Opts[J]);
      }
      P.JobMs.push_back(millisSince(T0));
      P.JobEnds.push_back(secondsSince(Start));
      ++P.Attempted;
      if (Rounds == 0)
        First[J] = std::move(R);
      else if (!(R == First[J]))
        P.fail(In.Jobs[J].Name + ": result differs between rounds");
    }
    ++Rounds;
  }
  // One block is one round, so every block holds the same job mix.
  P.RateBlock = P.LatencyBlock = In.Jobs.size();
  P.Jobs = Rounds * In.Jobs.size();
  P.Runs = P.Jobs * SeedsPerJob;

  //===--------------------------------------------------------------------===//
  // Oracle, outside the timed window.
  //===--------------------------------------------------------------------===//
  uint64_t RoundAccesses = 0, RoundSteps = 0, RoundFast = 0;
  uint64_t RoundReports = 0, RoundFindings = 0, RoundRetries = 0,
           RoundQuarantined = 0;
  for (size_t J = 0; J < In.Jobs.size(); ++J) {
    const CorpusJob &Job = In.Jobs[J];
    obs::Registry Reg(true);
    pipeline::SweepOptions S;
    S.FirstSeed = In.FirstSeed;
    S.NumSeeds = SeedsPerJob;
    S.Run.Metrics = &Reg;
    pipeline::SweepResult Want = Job.Prog
                                     ? pipeline::sweep(S, lang::body(Job.Prog))
                                     : serialSweep(S, Job.Run);
    RoundAccesses += counterValue(Reg, "grs_race_reads_total") +
                     counterValue(Reg, "grs_race_writes_total");
    RoundFast += counterValue(Reg, "grs_race_same_epoch_fastpath_total");
    RoundSteps += counterValue(Reg, "grs_rt_steps_total");

    const sweep::ResilientResult &Got = First[J];
    RoundReports += Got.Sweep.TotalReports;
    RoundFindings += Got.Sweep.Findings.size();
    RoundRetries += Got.Retries;
    RoundQuarantined += Got.Quarantined.size();
    std::string Bad;
    if (!(Got.Sweep == Want))
      Bad = "resilient aggregate != serial pipeline::sweep";
    else if (!Got.Quarantined.empty() || Got.Retries != 0)
      Bad = "quarantined or retried slots";
    else if (Job.Fixed && (!Want.clean() || !Want.Findings.empty()))
      Bad = "fixed variant is not clean";
    else if (Job.Port && !Job.Port->RaceFree) {
      std::set<uint64_t> Fps, Expected(Job.Port->ExpectedFps.begin(),
                                       Job.Port->ExpectedFps.end());
      for (const auto &F : Want.Findings)
        Fps.insert(F.first);
      if (Fps != Expected)
        Bad = "fingerprint set != LangPort::ExpectedFps";
    }
    if (!Bad.empty()) {
      // Every completion of this job returned the same wrong answer.
      for (uint64_t R = 0; R < Rounds; ++R)
        P.fail(Job.Name + ": " + Bad);
    }
  }
  P.Accesses = Rounds * RoundAccesses;

  uint64_t RoundRuns = In.Jobs.size() * SeedsPerJob;
  P.Layer["rt.steps"] = {static_cast<double>(RoundSteps) /
                             static_cast<double>(RoundRuns),
                         "count", RoundRuns};
  P.Layer["race.fastpath_ratio"] = {
      RoundAccesses ? static_cast<double>(RoundFast) /
                          static_cast<double>(RoundAccesses)
                    : 0.0,
      "ratio", 0};
  P.Layer["pipeline.reports"] = {static_cast<double>(Rounds * RoundReports),
                                 "count", 0};
  P.Layer["pipeline.dedup_ratio"] = {
      RoundReports ? static_cast<double>(RoundFindings) /
                         static_cast<double>(RoundReports)
                   : 0.0,
      "ratio", 0};
  P.Layer["sweep.retries"] = {static_cast<double>(Rounds * RoundRetries),
                              "count", 0};
  P.Layer["sweep.quarantined"] = {
      static_cast<double>(Rounds * RoundQuarantined), "count", 0};
  return P;
}

} // namespace perfbench
