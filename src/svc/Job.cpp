//===- svc/Job.cpp - Sweep-service job specs ------------------------------===//

#include "svc/Job.h"

#include "corpus/Patterns.h"
#include "inject/Fault.h"
#include "lang/Interp.h"
#include "lang/Parser.h"
#include "support/Hash.h"

#include <set>

using namespace grs;
using namespace grs::svc;

const char *svc::jobStateName(JobState S) {
  switch (S) {
  case JobState::Queued:  return "queued";
  case JobState::Running: return "running";
  case JobState::Done:    return "done";
  case JobState::Failed:  return "failed";
  }
  return "?";
}

bool JobSpec::parse(const support::Json &V, JobSpec &Out,
                    std::string &Error) {
  Out = JobSpec();
  if (!V.isObject()) {
    Error = "job spec must be a JSON object";
    return false;
  }
  static const std::set<std::string> Known = {
      "body",           "first_seed",      "num_seeds",
      "executor",       "threads",         "max_attempts",
      "preempt",        "max_steps",       "watchdog_millis",
      "fault_plan",     "deadline_millis", "job_retries",
      "job_retry_backoff_millis"};
  for (const auto &M : V.members())
    if (!Known.count(M.first)) {
      Error = "unknown spec key \"" + M.first + "\"";
      return false;
    }

  const support::Json &Body = V.get("body");
  if (!Body.isObject()) {
    Error = "spec needs a \"body\" object";
    return false;
  }
  for (const auto &M : Body.members())
    if (M.first != "kind" && M.first != "pattern" && M.first != "variant" &&
        M.first != "source") {
      Error = "unknown body key \"" + M.first + "\"";
      return false;
    }
  std::string Kind = Body.get("kind").asString("");
  if (Kind == "pattern") {
    Out.Pattern = Body.get("pattern").asString("");
    if (Out.Pattern.empty()) {
      Error = "pattern body needs a \"pattern\" id";
      return false;
    }
    std::string Variant = Body.get("variant").asString("racy");
    if (Variant != "racy" && Variant != "fixed") {
      Error = "body variant must be \"racy\" or \"fixed\"";
      return false;
    }
    Out.Fixed = Variant == "fixed";
    if (Body.has("source")) {
      Error = "pattern body cannot carry \"source\"";
      return false;
    }
  } else if (Kind == "grs") {
    Out.Source = Body.get("source").asString("");
    if (Out.Source.empty()) {
      Error = "grs body needs non-empty \"source\"";
      return false;
    }
    if (Body.has("pattern") || Body.has("variant")) {
      Error = "grs body cannot carry \"pattern\"/\"variant\"";
      return false;
    }
  } else {
    Error = "body kind must be \"pattern\" or \"grs\"";
    return false;
  }

  Out.FirstSeed = V.get("first_seed").asU64(Out.FirstSeed);
  Out.NumSeeds = V.get("num_seeds").asU64(Out.NumSeeds);
  if (Out.NumSeeds == 0) {
    Error = "num_seeds must be nonzero";
    return false;
  }
  if (Out.NumSeeds > 1'000'000) {
    Error = "num_seeds too large (max 1000000)";
    return false;
  }
  std::string Exec = V.get("executor").asString("pool");
  if (Exec == "pool")
    Out.Exec = Executor::Pool;
  else if (Exec == "resilient")
    Out.Exec = Executor::Resilient;
  else {
    Error = "executor must be \"pool\" or \"resilient\"";
    return false;
  }
  uint64_t Threads = V.get("threads").asU64(Out.Threads);
  if (Threads > 256) {
    Error = "threads must be at most 256";
    return false;
  }
  Out.Threads = static_cast<unsigned>(Threads);
  Out.MaxAttempts =
      static_cast<uint32_t>(V.get("max_attempts").asU64(Out.MaxAttempts));
  if (Out.MaxAttempts == 0 || Out.MaxAttempts > 100) {
    Error = "max_attempts must be in [1, 100]";
    return false;
  }
  Out.PreemptProbability = V.get("preempt").asDouble(Out.PreemptProbability);
  if (Out.PreemptProbability < 0 || Out.PreemptProbability > 1) {
    Error = "preempt must be in [0, 1]";
    return false;
  }
  Out.MaxSteps = V.get("max_steps").asU64(Out.MaxSteps);
  Out.WatchdogMillis = V.get("watchdog_millis").asU64(Out.WatchdogMillis);
  if (Out.WatchdogMillis == 0) {
    Error = "watchdog_millis must be nonzero (an un-interruptible job "
            "cannot be admitted)";
    return false;
  }

  if (V.has("fault_plan")) {
    const support::Json &F = V.get("fault_plan");
    if (!F.isObject()) {
      Error = "fault_plan must be an object";
      return false;
    }
    for (const auto &M : F.members())
      if (M.first != "plan_seed" && M.first != "rate" &&
          M.first != "latency_micros" && M.first != "lethal" &&
          M.first != "chronic_fraction") {
        Error = "unknown fault_plan key \"" + M.first + "\"";
        return false;
      }
    if (!Out.Source.size()) {
      Error = "fault_plan requires a grs body (corpus patterns host "
              "their own runtime, out of the injector's reach)";
      return false;
    }
    Out.HaveFaultPlan = true;
    Out.FaultPlanSeed = F.get("plan_seed").asU64(Out.FaultPlanSeed);
    Out.FaultRate = F.get("rate").asDouble(Out.FaultRate);
    if (Out.FaultRate < 0 || Out.FaultRate > 1) {
      Error = "fault_plan rate must be in [0, 1]";
      return false;
    }
    Out.FaultLatencyMicros =
        F.get("latency_micros").asU64(Out.FaultLatencyMicros);
    Out.FaultLethal = F.get("lethal").asBool(Out.FaultLethal);
    Out.FaultChronicFraction =
        F.get("chronic_fraction").asDouble(Out.FaultChronicFraction);
  }

  Out.DeadlineMillis = V.get("deadline_millis").asU64(Out.DeadlineMillis);
  uint64_t JobRetries = V.get("job_retries").asU64(Out.JobRetries);
  if (JobRetries > 100) {
    Error = "job_retries must be at most 100";
    return false;
  }
  Out.JobRetries = static_cast<uint32_t>(JobRetries);
  Out.JobRetryBackoffMillis =
      V.get("job_retry_backoff_millis").asU64(Out.JobRetryBackoffMillis);
  if (Out.JobRetryBackoffMillis > 60'000) {
    Error = "job_retry_backoff_millis must be at most 60000";
    return false;
  }
  return true;
}

support::Json JobSpec::toJson() const {
  using support::Json;
  Json Body = Json::object();
  if (!Source.empty()) {
    Body.set("kind", Json::string("grs"));
    Body.set("source", Json::string(Source));
  } else {
    Body.set("kind", Json::string("pattern"));
    Body.set("pattern", Json::string(Pattern));
    Body.set("variant", Json::string(Fixed ? "fixed" : "racy"));
  }
  Json V = Json::object();
  V.set("body", std::move(Body));
  V.set("first_seed", Json::unsignedInt(FirstSeed));
  V.set("num_seeds", Json::unsignedInt(NumSeeds));
  V.set("executor",
        Json::string(Exec == Executor::Pool ? "pool" : "resilient"));
  V.set("threads", Json::unsignedInt(Threads));
  V.set("max_attempts", Json::unsignedInt(MaxAttempts));
  V.set("preempt", Json::number(PreemptProbability));
  V.set("max_steps", Json::unsignedInt(MaxSteps));
  V.set("watchdog_millis", Json::unsignedInt(WatchdogMillis));
  if (HaveFaultPlan) {
    Json F = Json::object();
    F.set("plan_seed", Json::unsignedInt(FaultPlanSeed));
    F.set("rate", Json::number(FaultRate));
    F.set("latency_micros", Json::unsignedInt(FaultLatencyMicros));
    F.set("lethal", Json::boolean(FaultLethal));
    F.set("chronic_fraction", Json::number(FaultChronicFraction));
    V.set("fault_plan", std::move(F));
  }
  V.set("deadline_millis", Json::unsignedInt(DeadlineMillis));
  V.set("job_retries", Json::unsignedInt(JobRetries));
  V.set("job_retry_backoff_millis", Json::unsignedInt(JobRetryBackoffMillis));
  return V;
}

std::string JobSpec::canonicalBytes() const {
  return support::renderJson(toJson());
}

uint64_t JobSpec::hash() const {
  return support::Fnv1a().addString(canonicalBytes()).digest();
}

bool JobSpec::resolve(sweep::ResilientOptions &Out,
                      std::string &Error) const {
  Out = sweep::ResilientOptions();
  Out.FirstSeed = FirstSeed;
  Out.NumSeeds = NumSeeds;
  Out.Threads = Threads;
  Out.MaxAttempts = MaxAttempts;
  Out.Run.PreemptProbability = PreemptProbability;
  Out.Run.MaxSteps = MaxSteps;
  Out.Run.WatchdogMillis = WatchdogMillis;
  Out.OptionsSalt = hash();

  if (!Source.empty()) {
    lang::ParseResult R = lang::parseProgram(Source, "job.grs");
    if (!R.ok()) {
      Error = "grs parse failed: " +
              lang::renderDiag("job.grs", R.Diags.front());
      return false;
    }
    std::shared_ptr<const lang::Program> Prog = R.Prog;
    if (HaveFaultPlan) {
      inject::FaultPlanOptions P;
      P.PlanSeed = FaultPlanSeed;
      P.FirstSeed = FirstSeed;
      P.NumSeeds = NumSeeds;
      P.FaultRate = FaultRate;
      P.LatencyMicros = FaultLatencyMicros;
      P.LethalChronicFraction = FaultChronicFraction;
      if (FaultLethal)
        for (size_t K = 0; K < inject::NumFaultKinds; ++K)
          if (inject::isLethalFault(static_cast<inject::FaultKind>(K)))
            P.Weights[K] = 1;
      Out.Body =
          inject::instrumentedRunner(lang::body(Prog), inject::makeFaultPlan(P));
    } else {
      Out.Body = lang::runner(Prog);
    }
    return true;
  }

  const corpus::Pattern *Pat = corpus::findPattern(Pattern);
  if (!Pat) {
    Error = "unknown corpus pattern \"" + Pattern + "\"";
    return false;
  }
  Out.Body = Fixed ? Pat->RunFixed : Pat->RunRacy;
  return true;
}

bool svc::resolveSpecBytes(const uint8_t *Bytes, size_t Len,
                           sweep::ResilientOptions &Out) {
  support::Json V;
  std::string Error;
  if (!support::parseJson(
          std::string_view(reinterpret_cast<const char *>(Bytes), Len), V,
          Error))
    return false;
  JobSpec Spec;
  if (!JobSpec::parse(V, Spec, Error))
    return false;
  return Spec.resolve(Out, Error);
}
