//===- perfbench/SvcJobs.cpp - The svc-jobs workload -----------------------===//
//
// The end-to-end path from POST /jobs to result.json: a SweepService with
// two pool workers, driven over loopback by closed-loop clients. Each
// client POSTs a job, polls GET /jobs/<id> every millisecond until the job
// is terminal, then submits the next. Jobs alternate between a 24-seed
// corpus-pattern job and a 24-seed .grs port job (inline source), both on
// the pool executor with the spec's default armed watchdog; the pattern
// and port rotate so a run covers the whole corpus.
//
// Oracle (after the timed window): each result.json must equal the
// in-process sweep::resilient aggregate for the same spec. Refused
// admissions, Failed jobs, quarantined slots, timeouts, a drain that had
// to be repeated, a pool worker alive after stop, and a state directory
// left behind all count as failures.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "corpus/Patterns.h"
#include "lang/Ports.h"
#include "obs/Metrics.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "svc/Service.h"
#include "sweep/Checkpoint.h"

#include <atomic>
#include <mutex>
#include <thread>

#include <unistd.h>

using namespace grs;
using support::Json;

namespace perfbench {
namespace {

constexpr uint64_t SeedsPerJob = 24;
constexpr uint64_t JobTimeoutMillis = 60'000;
/// A client gives up after this many failed jobs (the run is wrong anyway).
constexpr uint64_t MaxClientFailures = 20;

struct SvcInputs {
  std::vector<std::string> PatternSpecs, PortSpecs;
  std::string WarmSpec;
  uint64_t Rotation = 0;

  /// Job \p K's spec: even jobs run a pattern, odd jobs a port.
  const std::string &spec(uint64_t K, size_t &Index) const {
    uint64_t Turn = K / 2 + Rotation;
    if (K % 2 == 0) {
      Index = Turn % PatternSpecs.size();
      return PatternSpecs[Index];
    }
    Index = PatternSpecs.size() + Turn % PortSpecs.size();
    return PortSpecs[Turn % PortSpecs.size()];
  }
  const std::string &specAt(size_t Index) const {
    return Index < PatternSpecs.size()
               ? PatternSpecs[Index]
               : PortSpecs[Index - PatternSpecs.size()];
  }
};

std::string specJson(Json Body, uint64_t FirstSeed, uint64_t NumSeeds) {
  Json V = Json::object();
  V.set("body", std::move(Body));
  V.set("first_seed", Json::unsignedInt(FirstSeed));
  V.set("num_seeds", Json::unsignedInt(NumSeeds));
  V.set("executor", Json::string("pool"));
  return support::renderJson(V);
}

Json patternBody(const std::string &Id) {
  Json B = Json::object();
  B.set("kind", Json::string("pattern"));
  B.set("pattern", Json::string(Id));
  B.set("variant", Json::string("racy"));
  return B;
}

bool buildInputs(uint64_t Seed, SvcInputs &In, std::string &Error) {
  support::Rng R(Seed);
  uint64_t FirstSeed = 1 + R.nextBelow(1'000'000);
  In.Rotation = R.nextBelow(1'000);
  In.PatternSpecs.clear();
  In.PortSpecs.clear();
  for (const corpus::Pattern &P : corpus::allPatterns())
    In.PatternSpecs.push_back(
        specJson(patternBody(P.Id), FirstSeed, SeedsPerJob));
  for (const lang::LangPort &Port : lang::langPorts()) {
    std::string Source;
    if (!svc::JobStore::readFile(lang::findTestdataPath(Port.File), Source) ||
        Source.empty()) {
      Error = "cannot read port " + Port.File;
      return false;
    }
    Json B = Json::object();
    B.set("kind", Json::string("grs"));
    B.set("source", Json::string(std::move(Source)));
    In.PortSpecs.push_back(specJson(std::move(B), FirstSeed, SeedsPerJob));
  }
  In.WarmSpec = specJson(patternBody(corpus::allPatterns()[0].Id), FirstSeed,
                         2);
  return true;
}

std::string jsonField(const std::string &Body, const char *Key) {
  Json V;
  std::string Error;
  return support::parseJson(Body, V, Error) ? V.get(Key).asString("") : "";
}

/// Drains until the scheduler reports drained, repeating drain() when a
/// wait times out; \returns the number of repeats. Then stops.
uint64_t boundedStop(svc::SweepService &S) {
  // drain() notifies without holding the service mutex, so a drain that
  // lands between the scheduler's predicate check and its wait is lost.
  // Callers stop right after a job finished, when the scheduler is on its
  // way back to that wait; letting it get there first makes the window
  // rare. A lost drain is still repeated, and counted.
  ::usleep(20'000);
  uint64_t Repeats = 0;
  for (;;) {
    S.drain();
    if (S.waitDrained(250) || Repeats >= 40)
      break;
    ++Repeats;
  }
  S.stop();
  return Repeats;
}

/// After a service stopped: no pool worker may survive it and its state
/// directory must go away.
void checkHygiene(const std::string &Dir, PhaseResult &P) {
  Clock::time_point T0 = Clock::now();
  while (!liveChildren().empty() && secondsSince(T0) < 5)
    ::usleep(2'000);
  if (!liveChildren().empty())
    P.fail("pool worker still alive after service stop");
  removeTree(Dir);
  if (pathExists(Dir))
    P.fail("state directory left behind: " + Dir);
}

struct Started {
  std::unique_ptr<svc::SweepService> S;
  std::string Dir;
};

/// Set-up: state dir, service start (recovery scan, HTTP, scheduler) and
/// the pool fork, which happens on the first job.
bool startService(const Config &Cfg, const SvcInputs &In, unsigned Rep,
                  Started &Out, std::string &Error) {
  Out.Dir = Cfg.WorkDir + "/svc-" + std::to_string(::getpid()) + "-" +
            std::to_string(Rep);
  removeTree(Out.Dir);
  svc::ServiceOptions O;
  O.StateDir = Out.Dir;
  O.PoolWorkers = 2;
  Out.S = std::make_unique<svc::SweepService>(O);
  if (!Out.S->start(Error))
    return false;
  HttpReply R = httpRequest(Out.S->port(), "POST", "/jobs", In.WarmSpec);
  std::string Id = jsonField(R.Body, "id");
  if (R.Status != 202 || !Out.S->waitTerminal(Id, JobTimeoutMillis)) {
    Error = "warm-up job did not run";
    return false;
  }
  return true;
}

struct JobRecord {
  std::string Id;
  size_t Spec = 0;
};

} // namespace

PhaseResult runSvcJobs(const Config &Cfg, double Seconds,
                       obs::Timeline *Trace, std::vector<double> &Setup,
                       unsigned Clients, uint64_t MinJobs) {
  PhaseResult P;
  SvcInputs In;
  Started Svc;
  uint64_t StuckDrains = 0;
  // The median of single set-ups fell into one of two groups about 4 ms
  // apart from run to run, so one sample is the mean of a round of
  // set-ups.
  constexpr unsigned SetupRounds = 5, SetupsPerRound = 3;
  constexpr unsigned SetupReps = SetupRounds * SetupsPerRound;
  double RoundSeconds = 0;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    std::string Error;
    bool Ok = buildInputs(Cfg.Seed, In, Error) &&
              startService(Cfg, In, Rep, Svc, Error);
    RoundSeconds += secondsSince(T0);
    if (Rep % SetupsPerRound == SetupsPerRound - 1) {
      Setup.push_back(RoundSeconds / SetupsPerRound);
      RoundSeconds = 0;
    }
    if (!Ok) {
      P.fail("set-up: " + Error);
      if (Svc.S)
        StuckDrains += boundedStop(*Svc.S);
      checkHygiene(Svc.Dir, P);
      return P;
    }
    if (Rep + 1 < SetupReps) {
      StuckDrains += boundedStop(*Svc.S);
      Svc.S.reset();
      checkHygiene(Svc.Dir, P);
    }
  }
  const uint16_t Port = Svc.S->port();

  //===--------------------------------------------------------------------===//
  // Timed closed loop.
  //===--------------------------------------------------------------------===//
  std::mutex Mu; // guards everything below that clients append to
  std::vector<JobRecord> Records;
  std::vector<double> AdmitUs, StatusUs, QueueMs, ExecMs;
  std::atomic<uint64_t> NextJob{0}, Completed{0};
  std::atomic<unsigned> Running{Clients};
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::microseconds(static_cast<int64_t>(Seconds * 1e6));
  Clock::time_point HardStop = Deadline + std::chrono::seconds(60);

  auto Client = [&](unsigned C) {
    obs::TimelineTrack *Track =
        Trace ? Trace->track("svc-client-" + std::to_string(C)) : nullptr;
    std::vector<double> MyAdmit, MyStatus, MyQueue, MyExec, MyJobMs, MyEnds;
    std::vector<JobRecord> Mine;
    uint64_t MyFailed = 0;
    std::vector<std::string> MyFailures;
    auto Fail = [&](const std::string &What) {
      ++MyFailed;
      if (MyFailures.size() < 4)
        MyFailures.push_back(What);
    };
    while ((Clock::now() < Deadline || Completed.load() < MinJobs) &&
           Clock::now() < HardStop && MyFailed < MaxClientFailures) {
      uint64_t K = NextJob.fetch_add(1);
      JobRecord Rec;
      const std::string &Spec = In.spec(K, Rec.Spec);
      obs::tlBegin(Track, "svc.job", idArgs("job", K));
      Clock::time_point T0 = Clock::now();
      obs::tlBegin(Track, "svc.admit", idArgs("job", K));
      HttpReply Admit = httpRequest(Port, "POST", "/jobs", Spec);
      obs::tlEnd(Track);
      Clock::time_point Admitted = Clock::now();
      MyAdmit.push_back(
          std::chrono::duration<double, std::micro>(Admitted - T0).count());
      Rec.Id = jsonField(Admit.Body, "id");
      if (Admit.Status != 202 || Rec.Id.empty()) {
        Fail("admission answered " + std::to_string(Admit.Status));
        obs::tlEnd(Track);
        ::usleep(1'000);
        continue;
      }
      obs::tlBegin(Track, "svc.queue", idArgs("job", K));
      bool SeenRunning = false;
      Clock::time_point RunningAt = Admitted;
      std::string State;
      for (;;) {
        ::usleep(1'000);
        Clock::time_point Q0 = Clock::now();
        obs::tlBegin(Track, "svc.status", idArgs("job", K));
        HttpReply St = httpRequest(Port, "GET", "/jobs/" + Rec.Id);
        obs::tlEnd(Track);
        Clock::time_point Q1 = Clock::now();
        MyStatus.push_back(
            std::chrono::duration<double, std::micro>(Q1 - Q0).count());
        State = jsonField(St.Body, "state");
        if (State == "running" && !SeenRunning) {
          SeenRunning = true;
          RunningAt = Q1;
          MyQueue.push_back(
              std::chrono::duration<double, std::milli>(Q1 - Admitted)
                  .count());
          obs::tlEnd(Track);
          obs::tlBegin(Track, "svc.exec", idArgs("job", K));
        }
        if (State == "done" || State == "failed") {
          if (SeenRunning)
            MyExec.push_back(
                std::chrono::duration<double, std::milli>(Q1 - RunningAt)
                    .count());
          break;
        }
        if (std::chrono::duration<double, std::milli>(Q1 - T0).count() >
            JobTimeoutMillis) {
          State = "timeout";
          break;
        }
      }
      obs::tlEnd(Track); // svc.queue or svc.exec
      obs::tlEnd(Track); // svc.job
      if (State != "done") {
        Fail(Rec.Id + " ended " + State);
        continue;
      }
      MyJobMs.push_back(millisSince(T0));
      MyEnds.push_back(secondsSince(Start));
      Mine.push_back(Rec);
      Completed.fetch_add(1);
    }
    std::lock_guard<std::mutex> Lock(Mu);
    AdmitUs.insert(AdmitUs.end(), MyAdmit.begin(), MyAdmit.end());
    StatusUs.insert(StatusUs.end(), MyStatus.begin(), MyStatus.end());
    QueueMs.insert(QueueMs.end(), MyQueue.begin(), MyQueue.end());
    ExecMs.insert(ExecMs.end(), MyExec.begin(), MyExec.end());
    P.JobMs.insert(P.JobMs.end(), MyJobMs.begin(), MyJobMs.end());
    P.JobEnds.insert(P.JobEnds.end(), MyEnds.begin(), MyEnds.end());
    Records.insert(Records.end(), Mine.begin(), Mine.end());
    P.Attempted += MyAdmit.size();
    P.Failed += MyFailed;
    for (const std::string &F : MyFailures)
      if (P.Failures.size() < 8)
        P.Failures.push_back(F);
    Running.fetch_sub(1);
  };

  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  // The main thread samples the resident set of the service and its pool.
  while (Running.load() != 0) {
    P.PeakRssMiB = std::max(P.PeakRssMiB, residentMiBWithChildren());
    ::usleep(100'000);
  }
  for (std::thread &T : Threads)
    T.join();
  P.Jobs = Records.size();
  P.RateBlock = 20;
  P.Runs = P.Jobs * SeedsPerJob;
  uint64_t Shed = Svc.S->shedCount();

  //===--------------------------------------------------------------------===//
  // Shutdown, hygiene and the oracle, outside the timed window.
  //===--------------------------------------------------------------------===//
  StuckDrains += boundedStop(*Svc.S);
  std::vector<std::string> Results(Records.size());
  svc::JobStore Store(Svc.Dir);
  for (size_t I = 0; I < Records.size(); ++I)
    svc::JobStore::readFile(Store.paths(Records[I].Id).Result, Results[I]);
  Svc.S.reset();
  checkHygiene(Svc.Dir, P);
  for (uint64_t I = 0; I < StuckDrains; ++I)
    P.fail("drain had to be repeated");

  std::map<size_t, std::string> Expected; // spec index -> rendered result
  std::map<size_t, uint64_t> SpecAccesses, SpecSteps, SpecFast;
  for (const JobRecord &R : Records) {
    if (Expected.count(R.Spec))
      continue;
    Json V;
    svc::JobSpec Spec;
    sweep::ResilientOptions RO;
    std::string Error;
    if (!support::parseJson(In.specAt(R.Spec), V, Error) ||
        !svc::JobSpec::parse(V, Spec, Error) || !Spec.resolve(RO, Error)) {
      Expected[R.Spec] = "unresolvable: " + Error;
      continue;
    }
    RO.Threads = 4;
    sweep::ResilientResult W = sweep::resilient(RO);
    // makeResultJson's document, rebuilt from the in-process aggregate.
    Json D = Json::object();
    D.set("state", Json::string("done"));
    D.set("spec_hash", Json::unsignedInt(Spec.hash()));
    D.set("seeds_run", Json::unsignedInt(W.Sweep.SeedsRun));
    D.set("seeds_with_races", Json::unsignedInt(W.Sweep.SeedsWithRaces));
    D.set("seeds_with_leaks", Json::unsignedInt(W.Sweep.SeedsWithLeaks));
    D.set("seeds_with_panics", Json::unsignedInt(W.Sweep.SeedsWithPanics));
    D.set("seeds_deadlocked", Json::unsignedInt(W.Sweep.SeedsDeadlocked));
    D.set("total_reports", Json::unsignedInt(W.Sweep.TotalReports));
    Json Findings = Json::array();
    for (const auto &F : W.Sweep.Findings) {
      Json E = Json::object();
      E.set("fp", Json::unsignedInt(F.first));
      E.set("occurrences", Json::unsignedInt(F.second.Occurrences));
      E.set("sample", Json::string(F.second.SampleReport));
      Findings.push(std::move(E));
    }
    D.set("findings", std::move(Findings));
    D.set("quarantined", Json::array());
    D.set("retries", Json::unsignedInt(W.Retries));
    Expected[R.Spec] = W.Quarantined.empty() ? support::renderJson(D)
                                             : "quarantined slots";

    // Access and step counts of one job, through a metrics registry.
    obs::Registry Reg(true);
    RO.Threads = 1;
    RO.Run.WatchdogMillis = 0;
    RO.Run.Metrics = &Reg;
    sweep::resilient(RO);
    SpecAccesses[R.Spec] = Reg.counter("grs_race_reads_total")->value() +
                           Reg.counter("grs_race_writes_total")->value();
    SpecFast[R.Spec] =
        Reg.counter("grs_race_same_epoch_fastpath_total")->value();
    SpecSteps[R.Spec] = Reg.counter("grs_rt_steps_total")->value();
  }

  uint64_t Reports = 0, Findings = 0, Retries = 0, Quarantined = 0, Steps = 0,
           Fast = 0;
  for (size_t I = 0; I < Records.size(); ++I) {
    Json Got;
    std::string Error;
    if (!support::parseJson(Results[I], Got, Error)) {
      P.fail(Records[I].Id + ": result.json missing or unreadable");
      continue;
    }
    if (support::renderJson(Got) != Expected[Records[I].Spec])
      P.fail(Records[I].Id + ": result.json != in-process resilient");
    Reports += Got.get("total_reports").asU64();
    Findings += Got.get("findings").size();
    Retries += Got.get("retries").asU64();
    Quarantined += Got.get("quarantined").size();
    P.Accesses += SpecAccesses[Records[I].Spec];
    Steps += SpecSteps[Records[I].Spec];
    Fast += SpecFast[Records[I].Spec];
  }

  P.Layer["svc.admit_us"] = {median(AdmitUs), "us", AdmitUs.size()};
  P.Layer["svc.queue_wait_ms"] = {median(QueueMs), "ms", QueueMs.size()};
  P.Layer["svc.exec_ms"] = {median(ExecMs), "ms", ExecMs.size()};
  P.Layer["svc.status_p50_us"] = {median(StatusUs), "us", StatusUs.size()};
  P.Layer["svc.shed"] = {static_cast<double>(Shed), "count", 0};
  P.Layer["svc.stuck_drains"] = {static_cast<double>(StuckDrains), "count",
                                 0};
  P.Layer["rt.steps"] = {P.Runs ? static_cast<double>(Steps) /
                                      static_cast<double>(P.Runs)
                                : 0.0,
                         "count", P.Runs};
  P.Layer["race.fastpath_ratio"] = {
      P.Accesses ? static_cast<double>(Fast) /
                       static_cast<double>(P.Accesses)
                 : 0.0,
      "ratio", 0};
  P.Layer["pipeline.reports"] = {static_cast<double>(Reports), "count", 0};
  P.Layer["pipeline.dedup_ratio"] = {
      Reports ? static_cast<double>(Findings) / static_cast<double>(Reports)
              : 0.0,
      "ratio", 0};
  P.Layer["sweep.retries"] = {static_cast<double>(Retries), "count", 0};
  P.Layer["sweep.quarantined"] = {static_cast<double>(Quarantined), "count",
                                  0};
  return P;
}

} // namespace perfbench
