//===- svc/Service.cpp - Crash-recoverable sweep service ------------------===//

#include "svc/Service.h"

#include "support/Json.h"
#include "sweep/Checkpoint.h"

#include <algorithm>
#include <chrono>

using namespace grs;
using namespace grs::svc;
using support::Json;

namespace {

/// One journaled slot record as a progress line (the /progress wire
/// format). Pure function of the record.
std::string renderProgressLine(const sweep::SlotRecord &R) {
  Json V = Json::object();
  V.set("slot", Json::unsignedInt(R.Slot));
  V.set("seed", Json::unsignedInt(R.Seed));
  V.set("attempts", Json::unsignedInt(R.Attempts));
  V.set("quarantined", Json::boolean(R.Quarantined));
  if (R.Quarantined) {
    V.set("fault", Json::string(sweep::faultClassName(R.Fault)));
  } else {
    V.set("races", Json::unsignedInt(R.RaceCount));
    V.set("leaked", Json::boolean(R.Leaked));
    V.set("panicked", Json::boolean(R.Panicked));
    V.set("deadlocked", Json::boolean(R.Deadlocked));
  }
  return support::renderJson(V);
}

/// Each slot's first journaled record, for slots below \p NumSeeds: the
/// records a resuming executor trusts.
std::vector<const sweep::SlotRecord *>
firstRecords(const sweep::CheckpointLoad &Load, uint64_t NumSeeds) {
  std::vector<uint8_t> Seen(NumSeeds, 0);
  std::vector<const sweep::SlotRecord *> Out;
  for (const sweep::SlotRecord &R : Load.Records)
    if (R.Slot < NumSeeds && !Seen[R.Slot]) {
      Seen[R.Slot] = 1;
      Out.push_back(&R);
    }
  return Out;
}

/// The terminal result document. DETERMINISTIC by construction — no
/// wall-clock, no daemon-run-relative counters (ResumedSlots would
/// differ between an interrupted and an uninterrupted history, so
/// per-slot facts come from the journal, where both histories converge
/// bit-for-bit). The resume-parity battery compares these documents
/// byte-for-byte.
Json makeResultJson(const JobSpec &Spec, const sweep::ResilientResult &Res,
                    const std::string &JournalPath) {
  Json V = Json::object();
  V.set("state", Json::string("done"));
  V.set("spec_hash", Json::unsignedInt(Spec.hash()));
  const pipeline::SweepResult &S = Res.Sweep;
  V.set("seeds_run", Json::unsignedInt(S.SeedsRun));
  V.set("seeds_with_races", Json::unsignedInt(S.SeedsWithRaces));
  V.set("seeds_with_leaks", Json::unsignedInt(S.SeedsWithLeaks));
  V.set("seeds_with_panics", Json::unsignedInt(S.SeedsWithPanics));
  V.set("seeds_deadlocked", Json::unsignedInt(S.SeedsDeadlocked));
  V.set("total_reports", Json::unsignedInt(S.TotalReports));
  Json Findings = Json::array();
  for (const auto &F : S.Findings) {
    Json E = Json::object();
    E.set("fp", Json::unsignedInt(F.first));
    E.set("occurrences", Json::unsignedInt(F.second.Occurrences));
    E.set("sample", Json::string(F.second.SampleReport));
    Findings.push(std::move(E));
  }
  V.set("findings", std::move(Findings));
  Json Quarantined = Json::array();
  for (const sweep::SlotRecord &R : Res.Quarantined) {
    Json E = Json::object();
    E.set("slot", Json::unsignedInt(R.Slot));
    E.set("attempts", Json::unsignedInt(R.Attempts));
    E.set("class", Json::string(sweep::faultClassName(R.Fault)));
    E.set("detail", Json::string(R.FaultDetail));
    Quarantined.push(std::move(E));
  }
  V.set("quarantined", std::move(Quarantined));
  // Retries from the JOURNAL, not ResilientResult::Retries: the latter
  // counts only slots executed by THIS daemon run, which depends on
  // where a crash fell.
  uint64_t Retries = 0;
  sweep::CheckpointLoad Load;
  std::string Error;
  if (sweep::loadCheckpoint(JournalPath, Load, Error))
    for (const sweep::SlotRecord *R : firstRecords(Load, Spec.NumSeeds))
      if (R->Attempts)
        Retries += R->Attempts - 1;
  V.set("retries", Json::unsignedInt(Retries));
  return V;
}

Json makeFailedResultJson(uint64_t SpecHash, const std::string &Error) {
  Json V = Json::object();
  V.set("state", Json::string("failed"));
  V.set("spec_hash", Json::unsignedInt(SpecHash));
  V.set("error", Json::string(Error));
  return V;
}

/// Splits "?from=N" style queries off a target. Only `from` is ever
/// looked for, so the parser is exactly that small.
uint64_t queryFrom(const std::string &Target, std::string &Path) {
  size_t Q = Target.find('?');
  Path = Target.substr(0, Q);
  if (Q == std::string::npos)
    return 0;
  size_t F = Target.find("from=", Q);
  if (F == std::string::npos)
    return 0;
  uint64_t N = 0;
  for (size_t I = F + 5; I < Target.size() && Target[I] >= '0' &&
                         Target[I] <= '9';
       ++I)
    N = N * 10 + static_cast<uint64_t>(Target[I] - '0');
  return N;
}

/// A job's status before it runs.
JobStatus queuedStatus(const std::string &Id, const JobSpec &Spec) {
  JobStatus S;
  S.Id = Id;
  S.SpecHash = Spec.hash();
  S.SlotsTotal = Spec.NumSeeds;
  return S;
}

} // namespace

SweepService::SweepService(ServiceOptions O)
    : Opts(std::move(O)), Store(Opts.StateDir), Reg(true) {}

SweepService::~SweepService() { stop(); }

bool SweepService::start(std::string &Error) {
  if (Started) {
    Error = "already started";
    return false;
  }
  if (Opts.StateDir.empty()) {
    Error = "ServiceOptions::StateDir is required";
    return false;
  }
  if (!Store.init(Error))
    return false;

  //===--------------------------------------------------------------------===//
  // Recovery scan, before anything can race it: terminal jobs are
  // served as-is, in-flight ones re-enter the queue (id order =
  // original admission order), rotten specs fail loudly.
  //===--------------------------------------------------------------------===//
  std::vector<JobStore::Recovered> Recovered;
  if (!Store.recover(Recovered, Error))
    return false;
  NextSeq = Store.maxSequence() + 1;
  for (JobStore::Recovered &R : Recovered) {
    JobStatus &S = Jobs[R.Id] = queuedStatus(R.Id, R.Spec);
    if (R.Terminal) {
      Json V;
      std::string Ignored;
      S.State = JobState::Done;
      if (support::parseJson(R.ResultText, V, Ignored) &&
          V.get("state").asString("") == "failed") {
        S.State = JobState::Failed;
        S.Error = V.get("error").asString("");
      }
      S.SlotsDone = S.SlotsTotal;
    } else if (!R.SpecError.empty()) {
      // A spec this service once accepted no longer parses: terminal
      // failure, not a silent skip (and not a crash loop).
      failJob(R.Id, S.SpecHash, R.SpecError);
    } else {
      Queue.push_back({R.Id, std::move(R.Spec)});
    }
  }

  //===--------------------------------------------------------------------===//
  // The one pool every job shares. Its resolver is the same pure
  // spec-bytes adapter admission validates with.
  //===--------------------------------------------------------------------===//
  sweep::PoolHostOptions PH;
  PH.Workers = Opts.PoolWorkers;
  PH.Resolve = resolveSpecBytes;
  PH.EnableSeccomp = Opts.EnableSeccomp;
  PH.EnableLandlock = Opts.EnableLandlock;
  PH.UseCgroupMemory = Opts.UseCgroupMemory;
  PH.ForceForkFree = Opts.ForceForkFree;
  Pool = std::make_unique<sweep::PoolHost>(std::move(PH));

  Http.setLimits(Opts.HttpLimits);
  Http.setHandler([this](const obs::HttpRequest &Req,
                         obs::HttpResponse &Resp) {
    return handleHttp(Req, Resp);
  });
  if (!Http.start(Opts.Port)) {
    Error = "cannot bind HTTP port " + std::to_string(Opts.Port);
    Pool.reset();
    return false;
  }

  StopRequested.store(false);
  Drained.store(false);
  Accepting.store(true);
  Scheduler = std::thread([this] { schedulerMain(); });
  Started = true;
  return true;
}

void SweepService::drain() {
  Accepting.store(false);
  {
    // Under Mu: the scheduler checks StopRequested and then blocks on Cv
    // while holding Mu, so a store outside it can land between the check
    // and the wait and lose this notify.
    std::lock_guard<std::mutex> Lock(Mu);
    StopRequested.store(true);
  }
  // After StopRequested: a cancelled job reads it to park, not fail.
  CancelCurrent.store(true);
  Cv.notify_all();
}

bool SweepService::waitDrained(uint64_t TimeoutMillis) {
  std::unique_lock<std::mutex> Lock(Mu);
  return Cv.wait_for(Lock, std::chrono::milliseconds(TimeoutMillis),
                     [this] { return Drained.load(); });
}

void SweepService::stop() {
  if (!Started)
    return;
  drain();
  if (Scheduler.joinable())
    Scheduler.join();
  Http.stop();
  Pool.reset(); // graceful worker retirement
  Started = false;
}

bool SweepService::status(const std::string &Id, JobStatus &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return false;
  Out = It->second;
  return true;
}

std::vector<JobStatus> SweepService::statusAll() const {
  std::vector<JobStatus> Out;
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &E : Jobs)
    Out.push_back(E.second);
  return Out;
}

bool SweepService::waitTerminal(const std::string &Id,
                                uint64_t TimeoutMillis) {
  std::unique_lock<std::mutex> Lock(Mu);
  return Cv.wait_for(Lock, std::chrono::milliseconds(TimeoutMillis), [&] {
    auto It = Jobs.find(Id);
    return It != Jobs.end() && (It->second.State == JobState::Done ||
                                It->second.State == JobState::Failed);
  });
}

sweep::PoolHostStats SweepService::poolStats() const {
  return Pool ? Pool->hostStats() : sweep::PoolHostStats();
}

//===----------------------------------------------------------------------===//
// HTTP surface (runs on the MetricsServer serving thread)
//===----------------------------------------------------------------------===//

bool SweepService::handleHttp(const obs::HttpRequest &Req,
                              obs::HttpResponse &Resp) {
  std::string Path;
  uint64_t From = queryFrom(Req.Target, Path);

  if (Path == "/jobs" && Req.Method == "POST") {
    handleAdmit(Req, Resp);
    return true;
  }
  if (Path == "/readyz" && Req.Method == "GET") {
    if (Accepting.load()) {
      Resp.Body = "ready\n";
    } else {
      Resp.Status = 503;
      Resp.Body = StopRequested.load() ? "draining\n" : "not started\n";
    }
    return true;
  }
  if (Path == "/jobs" && Req.Method == "GET") {
    Json List = Json::array();
    for (const JobStatus &S : statusAll()) {
      Json E = Json::object();
      E.set("id", Json::string(S.Id));
      E.set("state", Json::string(jobStateName(S.State)));
      E.set("slots_done", Json::unsignedInt(S.SlotsDone));
      E.set("slots_total", Json::unsignedInt(S.SlotsTotal));
      List.push(std::move(E));
    }
    Json V = Json::object();
    V.set("jobs", std::move(List));
    Resp.ContentType = "application/json";
    Resp.Body = support::renderJson(V) + "\n";
    return true;
  }
  if (Path.rfind("/jobs/", 0) == 0 && Req.Method == "GET") {
    std::string Rest = Path.substr(6);
    size_t Slash = Rest.find('/');
    std::string Id = Rest.substr(0, Slash);
    std::string Sub = Slash == std::string::npos ? "" : Rest.substr(Slash);
    JobStatus S;
    if (!status(Id, S)) {
      Resp.Status = 404;
      Resp.Body = "unknown job\n";
      return true;
    }
    if (Sub == "") {
      Json V = Json::object();
      V.set("id", Json::string(S.Id));
      V.set("state", Json::string(jobStateName(S.State)));
      V.set("spec_hash", Json::unsignedInt(S.SpecHash));
      V.set("slots_done", Json::unsignedInt(S.SlotsDone));
      V.set("slots_total", Json::unsignedInt(S.SlotsTotal));
      V.set("runs_attempted", Json::unsignedInt(S.RunsAttempted));
      if (!S.Error.empty())
        V.set("error", Json::string(S.Error));
      Resp.ContentType = "application/json";
      Resp.Body = support::renderJson(V) + "\n";
      return true;
    }
    // Both endpoints below read the job directory: the journal and
    // result.json are the only copies of a job's progress and verdict.
    if (Sub == "/progress") {
      sweep::CheckpointLoad Load;
      std::string Ignored;
      if (!sweep::loadCheckpoint(Store.paths(Id).Journal, Load, Ignored))
        Load.Records.clear(); // none yet, or none readable
      for (size_t I = From; I < Load.Records.size(); ++I) {
        Resp.Body += renderProgressLine(Load.Records[I]);
        Resp.Body += '\n';
      }
      Resp.ContentType = "application/jsonlines";
      Resp.ExtraHeaders.push_back(
          {"X-Next-Index", std::to_string(Load.Records.size())});
      return true;
    }
    if (Sub == "/result") {
      if (!JobStore::readFile(Store.paths(Id).Result, Resp.Body)) {
        Resp.Status = 404;
        Resp.Body = "no result (job not terminal)\n";
        return true;
      }
      Resp.ContentType = "application/json";
      return true;
    }
    Resp.Status = 404;
    Resp.Body = "unknown job endpoint\n";
    return true;
  }
  return false; // /metrics, /healthz, ... stay with the built-ins
}

void SweepService::handleAdmit(const obs::HttpRequest &Req,
                               obs::HttpResponse &Resp) {
  if (!Accepting.load()) {
    Resp.Status = 503;
    Resp.Body = "draining; not admitting jobs\n";
    return;
  }
  Json V;
  std::string Error;
  if (!support::parseJson(Req.Body, V, Error)) {
    Resp.Status = 400;
    Resp.Body = "bad JSON: " + Error + "\n";
    return;
  }
  JobSpec Spec;
  if (!JobSpec::parse(V, Spec, Error)) {
    Resp.Status = 400;
    Resp.Body = "bad spec: " + Error + "\n";
    return;
  }
  // Admission-time resolution: an unknown pattern or unparseable grs
  // source is the CLIENT's error and must fail now with a 400, not
  // later inside the scheduler with a failed job.
  sweep::ResilientOptions Probe;
  if (!Spec.resolve(Probe, Error)) {
    Resp.Status = 400;
    Resp.Body = "unresolvable spec: " + Error + "\n";
    return;
  }

  std::lock_guard<std::mutex> Lock(Mu);
  size_t Active = 0;
  for (const auto &E : Jobs)
    if (E.second.State == JobState::Queued ||
        E.second.State == JobState::Running)
      ++Active;
  if (Active >= Opts.QueueBound) {
    // EXPLICIT overload: the client is told, with a cadence, rather
    // than the job being silently dropped or unboundedly buffered.
    Shed.fetch_add(1);
    Resp.Status = 429;
    Resp.Body = "job queue full (" + std::to_string(Active) + " active)\n";
    Resp.ExtraHeaders.push_back(
        {"Retry-After", std::to_string(Opts.RetryAfterSeconds)});
    return;
  }

  std::string Id = JobStore::idForSequence(NextSeq);
  // Durable-then-visible: spec.json hits disk BEFORE the 202 and before
  // the queue — a kill -9 after this write means the restart re-admits
  // the job; a kill before it means the client never got its 202.
  if (!Store.writeAtomic(Store.paths(Id).Spec,
                         support::renderJsonPretty(Spec.toJson()), Error)) {
    Resp.Status = 500;
    Resp.Body = "cannot persist spec: " + Error + "\n";
    return;
  }
  ++NextSeq;
  Jobs.emplace(Id, queuedStatus(Id, Spec));
  Queue.push_back({Id, std::move(Spec)});
  Cv.notify_all();

  Json Out = Json::object();
  Out.set("id", Json::string(Id));
  Out.set("state", Json::string("queued"));
  Resp.Status = 202;
  Resp.ContentType = "application/json";
  Resp.Body = support::renderJson(Out) + "\n";
}

//===----------------------------------------------------------------------===//
// Scheduler (one thread; owns Reg and the pool)
//===----------------------------------------------------------------------===//

void SweepService::schedulerMain() {
  for (;;) {
    QueuedJob Job;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] {
        return StopRequested.load() || !Queue.empty();
      });
      if (StopRequested.load())
        break;
      Job = std::move(Queue.front());
      Queue.pop_front();
    }
    CancelCurrent.store(false);
    runJob(Job.Id, Job.Spec);

    // Publish at the job boundary (the owner-driven cadence the
    // threading model requires).
    {
      std::lock_guard<std::mutex> Lock(Mu);
      uint64_t ByState[4] = {};
      for (const auto &E : Jobs)
        ++ByState[static_cast<size_t>(E.second.State)];
      obs::set(Reg.gauge("grs_svc_jobs_queued"),
               static_cast<double>(ByState[0]));
      obs::set(Reg.gauge("grs_svc_jobs_done"),
               static_cast<double>(ByState[2]));
      obs::set(Reg.gauge("grs_svc_jobs_failed"),
               static_cast<double>(ByState[3]));
    }
    obs::set(Reg.gauge("grs_svc_jobs_shed"),
             static_cast<double>(Shed.load()));
    if (Pool) {
      const sweep::PoolHostStats &HS = Pool->hostStats();
      obs::set(Reg.gauge("grs_svc_pool_jobs_run"),
               static_cast<double>(HS.JobsRun));
      obs::set(Reg.gauge("grs_svc_pool_total_spawns"),
               static_cast<double>(HS.TotalSpawns));
      obs::set(Reg.gauge("grs_svc_pool_recycles"),
               static_cast<double>(HS.Recycles));
    }
    Http.publishRegistry(Reg);
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Drained.store(true);
  }
  Cv.notify_all();
}

void SweepService::failJob(const std::string &Id, uint64_t SpecHash,
                           const std::string &Error) {
  std::string WriteError;
  Store.writeAtomic(
      Store.paths(Id).Result,
      support::renderJsonPretty(makeFailedResultJson(SpecHash, Error)),
      WriteError);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    JobStatus &S = Jobs[Id];
    S.State = JobState::Failed;
    S.Error = Error;
  }
  Cv.notify_all();
}

void SweepService::runJob(const std::string &Id, const JobSpec &Spec) {
  JobPaths Paths = Store.paths(Id);
  uint64_t SpecHash = Spec.hash();
  JobStatus *St = nullptr; // map nodes are stable; fields need Mu
  {
    std::lock_guard<std::mutex> Lock(Mu);
    St = &Jobs[Id];
  }

  sweep::ResilientOptions Base;
  std::string Error;
  if (!Spec.resolve(Base, Error)) {
    failJob(Id, SpecHash, "spec resolution failed: " + Error);
    return;
  }

  //===--------------------------------------------------------------------===//
  // Resume refusal (the openResilientCheckpoint meta-mismatch contract,
  // enforced BEFORE running): a readable journal whose meta does not
  // match the spec-derived recipe hash means spec.json changed under a
  // journal that was written for something else. The executor's own
  // mismatch path would run from scratch with journaling disabled —
  // correct for a library, wrong for a daemon claiming resume parity —
  // so the service refuses the job outright.
  //===--------------------------------------------------------------------===//
  uint64_t Resumed = 0;
  if (JobStore::exists(Paths.Journal)) {
    sweep::CheckpointLoad Load;
    std::string LoadError;
    if (sweep::loadCheckpoint(Paths.Journal, Load, LoadError)) {
      sweep::CheckpointMeta Want;
      Want.FirstSeed = Base.FirstSeed;
      Want.NumSeeds = Base.NumSeeds;
      Want.OptionsHash = sweep::resilientOptionsHash(Base);
      if (!(Load.Meta == Want)) {
        failJob(Id, SpecHash,
                "refusing to resume: journal was written by a different "
                "job spec (checkpoint meta mismatch)");
        return;
      }
      Resumed = firstRecords(Load, Spec.NumSeeds).size();
    }
    // Unreadable journal (e.g. killed mid-header): the executor
    // recreates it and the sweep starts over — nothing committed was
    // readable, so nothing committed is lost.
  }
  {
    // One critical section: no poll sees Running without the resumed
    // slots counted.
    std::lock_guard<std::mutex> Lock(Mu);
    St->State = JobState::Running;
    St->SlotsDone = Resumed;
  }

  // Job deadline: wall-clock, checked where a slot commits, so a job that
  // hits its deadline keeps every committed slot and commits at least
  // one. The clock starts when THIS daemon run starts the job (a deadline
  // that spanned restarts would need a persisted admission timestamp —
  // wall-clock in the store — for marginal value). It is kept in double
  // milliseconds, which no deadline a spec can carry overflows.
  auto Started = std::chrono::steady_clock::now();
  std::chrono::duration<double, std::milli> Deadline(Spec.DeadlineMillis);
  auto OnSlot = [&](const sweep::SlotRecord &) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++St->SlotsDone;
    }
    if (Spec.DeadlineMillis &&
        std::chrono::steady_clock::now() - Started >= Deadline)
      CancelCurrent.store(true);
  };

  std::string SpecBytes = Spec.canonicalBytes();
  uint32_t MaxRuns = 1 + Spec.JobRetries;
  uint64_t BackoffMillis = Spec.JobRetryBackoffMillis;
  for (uint32_t Run = 1; Run <= MaxRuns; ++Run) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++St->RunsAttempted;
    }

    sweep::ResilientResult Res;
    if (Spec.Exec == Executor::Pool) {
      sweep::PoolRunRequest Req;
      Req.Spec.assign(SpecBytes.begin(), SpecBytes.end());
      Req.CheckpointPath = Paths.Journal;
      Req.Resume = JobStore::exists(Paths.Journal);
      Req.Metrics = &Reg;
      Req.CancelFlag = &CancelCurrent;
      Req.OnSlotDone = OnSlot;
      Res = Pool->run(Req).Res;
    } else {
      sweep::ResilientOptions RO = Base;
      RO.CheckpointPath = Paths.Journal;
      RO.Resume = JobStore::exists(Paths.Journal);
      RO.Metrics = &Reg;
      RO.CancelFlag = &CancelCurrent;
      RO.OnSlotDone = OnSlot;
      Res = sweep::resilient(RO);
    }

    if (Res.UnfinishedSlots != 0) {
      // Cancelled mid-sweep. Drain parks the job (journal holds every
      // committed slot; restart resumes); a deadline is terminal.
      if (StopRequested.load()) {
        std::lock_guard<std::mutex> Lock(Mu);
        St->State = JobState::Queued;
        return;
      }
      failJob(Id, SpecHash,
              "deadline exceeded (" + std::to_string(Spec.DeadlineMillis) +
                  " ms); committed slots remain journaled");
      return;
    }

    if (!Res.CheckpointError.empty()) {
      // Journal infrastructure failure: retry the whole job (the next
      // run resumes whatever DID reach the journal), then give up.
      if (Run < MaxRuns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMillis));
        BackoffMillis = std::min<uint64_t>(BackoffMillis * 2, 60'000);
        continue;
      }
      failJob(Id, SpecHash, "journal failure after " + std::to_string(Run) +
                                " runs: " + Res.CheckpointError);
      return;
    }

    // Success: commit the terminal document, then show the job Done.
    std::string WriteError;
    Store.writeAtomic(
        Paths.Result,
        support::renderJsonPretty(makeResultJson(Spec, Res, Paths.Journal)),
        WriteError);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      St->State = JobState::Done;
      St->SlotsDone = Spec.NumSeeds;
    }
    Cv.notify_all();
    return;
  }
}
