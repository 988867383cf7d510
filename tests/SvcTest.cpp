//===- tests/SvcTest.cpp - Crash-recoverable sweep service -----------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The battery for the control plane (src/svc): the paper's deployment
// shape was a SERVICE — daily sweeps over 100K+ unit tests for months —
// and a service earns its keep by surviving exactly the things a
// six-month deployment throws at it. These tests pin each survival
// property end to end:
//
//  * SPEC/STORE — job specs are canonical (parse∘render = identity,
//    strict rejection of rot), and the store's file-existence state
//    machine recovers admission order, ignores pre-commit garbage, and
//    fails rotten specs loudly.
//  * LIFECYCLE — admit over HTTP, watch progress stream with a cursor,
//    land on a result that is BIT-IDENTICAL to the library running the
//    same recipe (the service adds operations, never semantics).
//  * ADMISSION — a full queue answers 429 + Retry-After, never a silent
//    drop; a draining service answers 503; /readyz flips independently
//    of /healthz liveness.
//  * DEADLINE — checked where a slot commits, on both executors: terminal
//    Failed, at least one slot committed and every committed slot still
//    journaled, no thread started for it, and a pool the cancel tore
//    down re-forks for the next job.
//  * DRAIN — SIGTERM-shaped shutdown parks the in-flight job; a restart
//    resumes it and lands on the uninterrupted result, byte for byte,
//    counts its journaled slots from the start, and serves progress and
//    result from the job directory across the restart.
//  * KILL -9 — the centerpiece: SIGKILL the daemon process mid-job, once
//    its journal holds a random number of records, restart, and require
//    result.json AND the canonical journal to be bit-identical to an
//    uninterrupted run, with zero committed slot records lost. Then re-run
//    the same differential at EVERY truncation prefix of a completed
//    journal (every byte boundary a crash could have left behind).
//  * REFUSAL — a journal whose meta does not match spec.json on disk
//    (somebody edited the spec under a half-done job) is refused, not
//    silently restarted.
//  * AMORTIZATION — one service, many jobs, and the pool forked exactly
//    pool-size workers in total.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"
#include "svc/Service.h"
#include "sweep/Checkpoint.h"
#include "sweep/Resilient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define GRS_SVC_TEST_FORK 1
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define GRS_SVC_TEST_FORK 0
#endif

using namespace grs;
using namespace grs::svc;

namespace {

//===----------------------------------------------------------------------===//
// Infrastructure
//===----------------------------------------------------------------------===//

std::string tempDir(const std::string &Name) {
  static int Counter = 0;
  return ::testing::TempDir() + "grs-svc-" + Name + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(Counter++);
}

#if GRS_SVC_TEST_FORK
void removeTree(const std::string &Path) {
  DIR *D = opendir(Path.c_str());
  if (D) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name == "." || Name == "..")
        continue;
      removeTree(Path + "/" + Name);
    }
    closedir(D);
    rmdir(Path.c_str());
  } else {
    unlink(Path.c_str());
  }
}

/// One-shot HTTP request against 127.0.0.1:\p Port; returns the raw
/// response or "" on connection failure.
std::string httpReq(uint16_t Port, const std::string &Method,
                    const std::string &Target, const std::string &Body = "") {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return "";
  }
  std::string Req = Method + " " + Target + " HTTP/1.1\r\nHost: l\r\n";
  if (!Body.empty())
    Req += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  Req += "\r\n" + Body;
  size_t Off = 0;
  while (Off < Req.size()) {
    ssize_t N = ::write(Fd, Req.data() + Off, Req.size() - Off);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  std::string Resp;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Resp.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  return Resp;
}

std::string httpBody(const std::string &Resp) {
  size_t P = Resp.find("\r\n\r\n");
  return P == std::string::npos ? "" : Resp.substr(P + 4);
}
#endif // GRS_SVC_TEST_FORK

/// The canonical view of a journal: the FIRST record per slot (what a
/// resuming executor would trust), keyed by slot. Completion order is
/// scheduling-dependent with >1 worker, so bit-parity claims compare
/// THIS, plus the meta. Returns false when the journal does not load.
bool canonicalJournal(const std::string &Path, sweep::CheckpointMeta &Meta,
                      std::map<uint64_t, sweep::SlotRecord> &Out) {
  sweep::CheckpointLoad Load;
  std::string Error;
  if (!sweep::loadCheckpoint(Path, Load, Error))
    return false;
  Meta = Load.Meta;
  Out.clear();
  for (const sweep::SlotRecord &R : Load.Records)
    Out.emplace(R.Slot, R); // emplace keeps the first
  return true;
}

/// A quick pattern-body spec: real corpus code, no fault plan, finishes
/// fast.
std::string patternSpec(uint64_t NumSeeds, const std::string &Executor,
                        unsigned Threads = 2) {
  return "{\"body\":{\"kind\":\"pattern\",\"pattern\":\"loop-index-capture\","
         "\"variant\":\"racy\"},\"num_seeds\":" +
         std::to_string(NumSeeds) + ",\"executor\":\"" + Executor +
         "\",\"threads\":" + std::to_string(Threads) + "}";
}

/// A grs-body spec whose per-seed cost is real work (an interpreted
/// loop), for jobs that must still be RUNNING when the test acts on
/// them (drain, deadline, kill). \p Spin scales per-slot duration.
std::string slowGrsSpec(uint64_t NumSeeds, uint64_t Spin,
                        const std::string &Extra = "",
                        const std::string &Executor = "resilient") {
  std::string Source = "func main() {\n"
                       "\tx := 0\n"
                       "\tgo \"w\" func w() { x = x + 1 }()\n"
                       "\tfor i := 0; i < " +
                       std::to_string(Spin) +
                       "; i = i + 1 {\n"
                       "\t\tx = x + 1\n"
                       "\t}\n"
                       "}\n";
  support::Json Body = support::Json::object();
  Body.set("kind", support::Json::string("grs"));
  Body.set("source", support::Json::string(Source));
  support::Json V = support::Json::object();
  V.set("body", std::move(Body));
  std::string S = support::renderJson(V);
  std::string Tail = ",\"num_seeds\":" + std::to_string(NumSeeds) +
                     ",\"executor\":\"" + Executor + "\",\"threads\":1" +
                     Extra + "}";
  return S.substr(0, S.size() - 1) + Tail;
}

/// Seeds a fresh store dir with \p SpecJson as job-000001 (an admitted,
/// un-run job — exactly what a crash leaves behind).
void seedJob(const std::string &Dir, const std::string &SpecJson,
             const std::string &JournalBytes = "",
             bool HaveJournal = false) {
  JobStore Store(Dir);
  std::string Error;
  ASSERT_TRUE(Store.init(Error)) << Error;
  support::Json V;
  ASSERT_TRUE(support::parseJson(SpecJson, V, Error)) << Error;
  JobSpec Spec;
  ASSERT_TRUE(JobSpec::parse(V, Spec, Error)) << Error;
  JobPaths P = Store.paths("job-000001");
  ASSERT_TRUE(Store.writeAtomic(
      P.Spec, support::renderJsonPretty(Spec.toJson()), Error))
      << Error;
  if (HaveJournal) {
    std::ofstream Out(P.Journal, std::ios::binary | std::ios::trunc);
    Out.write(JournalBytes.data(),
              static_cast<std::streamsize>(JournalBytes.size()));
  }
}

/// Runs a service on \p Dir until job-000001 is terminal; returns its
/// result.json bytes. The service is configured identically everywhere
/// a differential compares two of these runs.
std::string runToTerminal(const std::string &Dir, bool ForceForkFree,
                          unsigned PoolWorkers = 2,
                          uint64_t TimeoutMillis = 60'000) {
  ServiceOptions O;
  O.StateDir = Dir;
  O.PoolWorkers = PoolWorkers;
  O.ForceForkFree = ForceForkFree;
  SweepService S(O);
  std::string Error;
  EXPECT_TRUE(S.start(Error)) << Error;
  EXPECT_TRUE(S.waitTerminal("job-000001", TimeoutMillis));
  S.stop();
  std::string Text;
  EXPECT_TRUE(JobStore::readFile(JobStore(Dir).paths("job-000001").Result,
                                 Text));
  return Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec + store
//===----------------------------------------------------------------------===//

TEST(JobSpec, CanonicalRoundTripAndHashStability) {
  support::Json V;
  std::string Error;
  ASSERT_TRUE(support::parseJson(patternSpec(40, "pool"), V, Error)) << Error;
  JobSpec Spec;
  ASSERT_TRUE(JobSpec::parse(V, Spec, Error)) << Error;

  // parse(render(spec)) is the identity on canonical bytes — the
  // property that lets spec bytes travel to a pool worker and resolve
  // identically on both sides of a fork.
  support::Json V2;
  ASSERT_TRUE(support::parseJson(Spec.canonicalBytes(), V2, Error));
  JobSpec Spec2;
  ASSERT_TRUE(JobSpec::parse(V2, Spec2, Error)) << Error;
  EXPECT_EQ(Spec.canonicalBytes(), Spec2.canonicalBytes());
  EXPECT_EQ(Spec.hash(), Spec2.hash());

  // Different recipes hash differently (the refusal bit depends on it).
  support::Json V3;
  ASSERT_TRUE(support::parseJson(patternSpec(41, "pool"), V3, Error));
  JobSpec Spec3;
  ASSERT_TRUE(JobSpec::parse(V3, Spec3, Error));
  EXPECT_NE(Spec.hash(), Spec3.hash());
}

TEST(JobSpec, StrictRejection) {
  auto Rejects = [](const std::string &Json, const char *Why) {
    support::Json V;
    std::string Error;
    ASSERT_TRUE(support::parseJson(Json, V, Error)) << Why;
    JobSpec Spec;
    EXPECT_FALSE(JobSpec::parse(V, Spec, Error)) << Why;
    EXPECT_FALSE(Error.empty()) << Why;
  };
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},\"bogus\":1}",
          "unknown top-level key");
  Rejects("{\"body\":{\"kind\":\"teapot\"}}", "unknown body kind");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\","
          "\"variant\":\"maybe\"}}",
          "bad variant");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"num_seeds\":0}",
          "zero seeds");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"executor\":\"cloud\"}",
          "unknown executor");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"watchdog_millis\":0}",
          "un-interruptible job");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"fault_plan\":{}}",
          "fault plan needs a grs body");
  Rejects("{\"body\":{\"kind\":\"grs\",\"source\":\"func main() {}\"},"
          "\"fault_plan\":{\"rate\":2.0}}",
          "rate out of range");
  // Range checks before any narrowing: 2^32 + 1 threads would wrap to 1,
  // and 2^32 - 1 job retries would wrap the run count to 0.
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"threads\":257}",
          "too many threads");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"threads\":4294967297}",
          "threads past 32 bits");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"job_retries\":101}",
          "too many job retries");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"job_retries\":4294967295}",
          "job retries that wrap the run count");
  Rejects("{\"body\":{\"kind\":\"pattern\",\"pattern\":\"p\"},"
          "\"job_retry_backoff_millis\":60001}",
          "backoff past 60 s");
}

#if GRS_SVC_TEST_FORK

TEST(JobStore, FileExistenceStateMachineRecovers) {
  std::string Dir = tempDir("store");
  JobStore Store(Dir);
  std::string Error;
  ASSERT_TRUE(Store.init(Error)) << Error;

  support::Json V;
  ASSERT_TRUE(support::parseJson(patternSpec(10, "pool"), V, Error));
  JobSpec Spec;
  ASSERT_TRUE(JobSpec::parse(V, Spec, Error));
  std::string SpecText = support::renderJsonPretty(Spec.toJson());

  // Two admitted jobs; the first also terminal.
  ASSERT_TRUE(
      Store.writeAtomic(Store.paths("job-000001").Spec, SpecText, Error));
  ASSERT_TRUE(Store.writeAtomic(Store.paths("job-000001").Result,
                                "{\"state\": \"done\"}", Error));
  ASSERT_TRUE(
      Store.writeAtomic(Store.paths("job-000002").Spec, SpecText, Error));
  // A dir without a spec: admission died pre-commit. Must be ignored.
  ASSERT_TRUE(Store.writeAtomic(Dir + "/job-000007/other.txt", "x", Error));
  // A rotten spec: must surface as SpecError, not vanish.
  ASSERT_TRUE(Store.writeAtomic(Store.paths("job-000003").Spec,
                                "{this is not json", Error));
  // A stale .tmp from a crashed atomic write: invisible.
  {
    std::ofstream Tmp(Store.paths("job-000002").Result + ".tmp");
    Tmp << "torn";
  }

  std::vector<JobStore::Recovered> R;
  ASSERT_TRUE(Store.recover(R, Error)) << Error;
  ASSERT_EQ(R.size(), 3u);
  EXPECT_EQ(R[0].Id, "job-000001");
  EXPECT_TRUE(R[0].Terminal);
  EXPECT_EQ(R[0].ResultText, "{\"state\": \"done\"}");
  EXPECT_EQ(R[1].Id, "job-000002");
  EXPECT_FALSE(R[1].Terminal) << "a .tmp leftover must not look terminal";
  EXPECT_TRUE(R[1].SpecError.empty());
  EXPECT_EQ(R[2].Id, "job-000003");
  EXPECT_FALSE(R[2].SpecError.empty());
  EXPECT_EQ(Store.maxSequence(), 7u);

  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// HTTP lifecycle + admission control
//===----------------------------------------------------------------------===//

TEST(SweepService, HttpLifecycleLandsOnLibraryIdenticalResult) {
  std::string Dir = tempDir("lifecycle");
  ServiceOptions O;
  O.StateDir = Dir;
  O.PoolWorkers = 2;
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ASSERT_TRUE(S.accepting());

  // Admit.
  std::string Resp = httpReq(S.port(), "POST", "/jobs", patternSpec(40, "pool"));
  EXPECT_NE(Resp.find("HTTP/1.1 202"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("job-000001"), std::string::npos);

  // Malformed JSON and unresolvable specs are the CLIENT's 400, now.
  EXPECT_NE(httpReq(S.port(), "POST", "/jobs", "{nope").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(httpReq(S.port(), "POST", "/jobs",
                    "{\"body\":{\"kind\":\"pattern\","
                    "\"pattern\":\"no-such-pattern\"}}")
                .find("HTTP/1.1 400"),
            std::string::npos);

  ASSERT_TRUE(S.waitTerminal("job-000001", 60'000));

  // Status surface.
  Resp = httpReq(S.port(), "GET", "/jobs/job-000001");
  EXPECT_NE(Resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(Resp.find("\"state\":\"done\""), std::string::npos) << Resp;
  EXPECT_NE(httpReq(S.port(), "GET", "/jobs").find("job-000001"),
            std::string::npos);
  EXPECT_NE(httpReq(S.port(), "GET", "/jobs/job-999999")
                .find("HTTP/1.1 404"),
            std::string::npos);

  // Progress stream: all 40 slots, cursor in X-Next-Index, and a
  // from=N window that starts where the cursor says.
  Resp = httpReq(S.port(), "GET", "/jobs/job-000001/progress");
  EXPECT_NE(Resp.find("X-Next-Index: 40"), std::string::npos) << Resp;
  std::string Lines = httpBody(Resp);
  size_t Count = 0;
  for (char C : Lines)
    Count += C == '\n';
  EXPECT_EQ(Count, 40u);
  Resp = httpReq(S.port(), "GET", "/jobs/job-000001/progress?from=38");
  Lines = httpBody(Resp);
  Count = 0;
  for (char C : Lines)
    Count += C == '\n';
  EXPECT_EQ(Count, 2u);
  // A cursor past 2^64 saturates instead of wrapping round to index 1.
  Resp = httpReq(S.port(), "GET",
                 "/jobs/job-000001/progress?from=18446744073709551617");
  EXPECT_NE(Resp.find("X-Next-Index: 40"), std::string::npos) << Resp;
  EXPECT_EQ(httpBody(Resp), "");

  // The service's verdict is the library's verdict: same recipe through
  // sweep::resilient directly must aggregate identically.
  JobStatus St;
  ASSERT_TRUE(S.status("job-000001", St));
  EXPECT_EQ(St.SlotsDone, 40u);
  std::string ServedResult = httpBody(httpReq(S.port(), "GET",
                                              "/jobs/job-000001/result"));
  S.stop();

  support::Json V;
  ASSERT_TRUE(support::parseJson(patternSpec(40, "pool"), V, Error));
  JobSpec Spec;
  ASSERT_TRUE(JobSpec::parse(V, Spec, Error));
  sweep::ResilientOptions RO;
  ASSERT_TRUE(Spec.resolve(RO, Error)) << Error;
  sweep::ResilientResult Lib = sweep::resilient(RO);

  support::Json Served;
  ASSERT_TRUE(support::parseJson(ServedResult, Served, Error)) << Error;
  EXPECT_EQ(Served.get("seeds_run").asU64(0), Lib.Sweep.SeedsRun);
  EXPECT_EQ(Served.get("seeds_with_races").asU64(0), Lib.Sweep.SeedsWithRaces);
  EXPECT_EQ(Served.get("total_reports").asU64(0), Lib.Sweep.TotalReports);
  ASSERT_EQ(Served.get("findings").items().size(), Lib.Sweep.Findings.size());

  removeTree(Dir);
}

TEST(SweepService, OverloadAnswers429WithRetryAfterNeverDrops) {
  std::string Dir = tempDir("admission");
  ServiceOptions O;
  O.StateDir = Dir;
  O.QueueBound = 2;
  O.RetryAfterSeconds = 7;
  O.ForceForkFree = true; // in-process executor; still cancellable
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  // A job big enough to still be active for the whole test body, then a
  // burst of small ones. The bound is ACTIVE jobs and one job runs at a
  // time, so the second admission queues and every later one sheds —
  // explicitly, with a cadence, and counted.
  uint64_t Admitted = 0, Shed = 0;
  for (int I = 0; I < 12; ++I) {
    std::string Resp =
        httpReq(S.port(), "POST", "/jobs",
                I == 0 ? slowGrsSpec(1'000'000, 50)
                       : patternSpec(4, "resilient"));
    if (Resp.find("HTTP/1.1 202") != std::string::npos) {
      ++Admitted;
      continue;
    }
    ++Shed;
    EXPECT_NE(Resp.find("HTTP/1.1 429"), std::string::npos) << Resp;
    EXPECT_NE(Resp.find("Retry-After: 7"), std::string::npos) << Resp;
  }
  EXPECT_EQ(Admitted, 2u);
  EXPECT_EQ(S.shedCount(), Shed);
  // Nothing silently dropped or kept: the store holds exactly the 202s.
  EXPECT_EQ(S.statusAll().size(), Admitted);

  // Liveness vs readiness: both up while accepting...
  EXPECT_NE(httpReq(S.port(), "GET", "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(httpReq(S.port(), "GET", "/readyz").find("HTTP/1.1 200"),
            std::string::npos);

  // Let the big job commit some slots, so the drain has real work to park.
  for (int Spin = 0; Spin < 10'000; ++Spin) {
    JobStatus St;
    if (S.status("job-000001", St) && St.SlotsDone >= 10)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...and during drain the ready bit drops while liveness stays up and
  // admission turns into 503 (shedding clients can stop retrying).
  S.drain();
  EXPECT_NE(httpReq(S.port(), "GET", "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(httpReq(S.port(), "GET", "/readyz").find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(httpReq(S.port(), "POST", "/jobs", patternSpec(5, "resilient"))
                .find("HTTP/1.1 503"),
            std::string::npos);

  // Drain completes within 5 s even with a million-seed job in flight
  // (cancellation is slot-granular, not job-granular), and parks the job.
  EXPECT_TRUE(S.waitDrained(5'000));
  JobStatus St;
  ASSERT_TRUE(S.status("job-000001", St));
  EXPECT_EQ(St.State, JobState::Queued) << "drain PARKS, it does not fail";
  S.stop();
  removeTree(Dir);
}

TEST(SweepService, DeadlineCancelsAtSlotGranularity) {
  std::string Dir = tempDir("deadline");
  seedJob(Dir, slowGrsSpec(1'000'000, 50, ",\"deadline_millis\":150"));
  ServiceOptions O;
  O.StateDir = Dir;
  O.ForceForkFree = true;
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ASSERT_TRUE(S.waitTerminal("job-000001", 60'000));
  JobStatus St;
  ASSERT_TRUE(S.status("job-000001", St));
  EXPECT_EQ(St.State, JobState::Failed);
  EXPECT_NE(St.Error.find("deadline exceeded"), std::string::npos)
      << St.Error;
  EXPECT_LT(St.SlotsDone, 1'000'000u);
  S.stop();

  // The committed prefix is journaled, not lost with the deadline.
  sweep::CheckpointMeta Meta;
  std::map<uint64_t, sweep::SlotRecord> Records;
  ASSERT_TRUE(canonicalJournal(JobStore(Dir).paths("job-000001").Journal,
                               Meta, Records));
  EXPECT_GT(Records.size(), 0u);
  EXPECT_EQ(Records.size(), St.SlotsDone);
  removeTree(Dir);
}

// A deadline is checked where a slot commits, so a job that has one starts
// no thread: /proc/self/task, sampled every millisecond while the job
// runs, never holds more threads than right after start().
TEST(SweepService, DeadlinedJobStartsNoThread) {
  auto Threads = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                         std::filesystem::directory_iterator());
  };
  std::string Dir = tempDir("deadline-threads");
  seedJob(Dir, slowGrsSpec(1'000'000, 50, ",\"deadline_millis\":150"));
  ServiceOptions O;
  O.StateDir = Dir;
  O.ForceForkFree = true;
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  auto AfterStart = Threads();
  auto Most = AfterStart;
  uint64_t RunningSamples = 0;
  JobStatus St;
  auto GiveUp = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (S.status("job-000001", St) && St.State != JobState::Done &&
         St.State != JobState::Failed &&
         std::chrono::steady_clock::now() < GiveUp) {
    Most = std::max(Most, Threads());
    RunningSamples += St.State == JobState::Running;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(St.State, JobState::Failed) << St.Error;
  EXPECT_GT(RunningSamples, 0u) << "no sample landed while the job ran";
  EXPECT_EQ(Most, AfterStart);
  S.stop();
  removeTree(Dir);
}

// The same deadline on the pool executor: the cancel tears the pool down
// after at least one committed slot, the journal holds exactly the slots
// the status counted, and the next job re-forks and lands on the
// in-process result.
TEST(SweepService, PoolDeadlineCancelsAndTheNextJobRuns) {
  std::string Next = patternSpec(24, "pool");
  std::string RefDir = tempDir("pool-deadline-ref");
  seedJob(RefDir, Next);
  std::string RefResult = runToTerminal(RefDir, /*ForceForkFree=*/true);
  ASSERT_FALSE(RefResult.empty());

  std::string Dir = tempDir("pool-deadline");
  seedJob(Dir,
          slowGrsSpec(1'000'000, 50, ",\"deadline_millis\":150", "pool"));
  ServiceOptions O;
  O.StateDir = Dir;
  O.PoolWorkers = 2;
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ASSERT_TRUE(S.waitTerminal("job-000001", 60'000));
  JobStatus St;
  ASSERT_TRUE(S.status("job-000001", St));
  EXPECT_EQ(St.State, JobState::Failed);
  EXPECT_NE(St.Error.find("deadline exceeded"), std::string::npos)
      << St.Error;
  EXPECT_GE(St.SlotsDone, 1u);
  sweep::CheckpointLoad Load;
  ASSERT_TRUE(sweep::loadCheckpoint(JobStore(Dir).paths("job-000001").Journal,
                                    Load, Error))
      << Error;
  EXPECT_EQ(Load.Records.size(), St.SlotsDone);
  sweep::PoolHostStats AfterDeadline = S.poolStats();
  EXPECT_EQ(AfterDeadline.CancelTeardowns, 1u);

  std::string Resp = httpReq(S.port(), "POST", "/jobs", Next);
  ASSERT_NE(Resp.find("HTTP/1.1 202"), std::string::npos) << Resp;
  ASSERT_TRUE(S.waitTerminal("job-000002", 60'000));
  ASSERT_TRUE(S.status("job-000002", St));
  EXPECT_EQ(St.State, JobState::Done) << St.Error;
  sweep::PoolHostStats AfterNext = S.poolStats();
  EXPECT_EQ(AfterNext.CancelTeardowns, 1u);
  EXPECT_GT(AfterNext.TotalSpawns, AfterDeadline.TotalSpawns)
      << "the next job must run on re-forked workers";
  S.stop();
  std::string Result;
  ASSERT_TRUE(
      JobStore::readFile(JobStore(Dir).paths("job-000002").Result, Result));
  EXPECT_EQ(Result, RefResult);
  removeTree(RefDir);
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Drain + restart, and the kill -9 differential
//===----------------------------------------------------------------------===//

TEST(SweepService, DrainParksInFlightJobAndRestartLandsIdentically) {
  // Reference: the same job, uninterrupted.
  std::string Spec = slowGrsSpec(120, 30);
  std::string RefDir = tempDir("drain-ref");
  seedJob(RefDir, Spec);
  std::string RefResult = runToTerminal(RefDir, /*ForceForkFree=*/true);
  ASSERT_FALSE(RefResult.empty());

  // Interrupted: drain mid-job, restart, finish.
  std::string Dir = tempDir("drain");
  seedJob(Dir, Spec);
  uint64_t ParkedSlots = 0;
  {
    ServiceOptions O;
    O.StateDir = Dir;
    O.ForceForkFree = true;
    SweepService S(O);
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
    // Let it make SOME progress, then drain.
    for (int Spin = 0; Spin < 10'000; ++Spin) {
      JobStatus St;
      if (S.status("job-000001", St) && St.SlotsDone >= 3)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    S.drain();
    ASSERT_TRUE(S.waitDrained(30'000)) << "drain must finish within budget";
    JobStatus St;
    ASSERT_TRUE(S.status("job-000001", St));
    EXPECT_EQ(St.State, JobState::Queued) << "drain PARKS, it does not fail";
    ParkedSlots = St.SlotsDone;
    S.stop();
  }
  EXPECT_FALSE(
      JobStore::exists(JobStore(Dir).paths("job-000001").Result));
  EXPECT_GT(ParkedSlots, 0u) << "test must actually interrupt mid-job";

  std::string Resumed;
  {
    ServiceOptions O;
    O.StateDir = Dir;
    O.ForceForkFree = true;
    SweepService S(O);
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
    ASSERT_TRUE(S.waitTerminal("job-000001", 60'000));
    ASSERT_TRUE(JobStore::readFile(JobStore(Dir).paths("job-000001").Result,
                                   Resumed));
    // Both endpoints read the job directory, so they span the restart:
    // the stream holds the parked slots too and its cursor keeps
    // counting, and the result is result.json's bytes.
    std::string Resp = httpReq(S.port(), "GET", "/jobs/job-000001/progress");
    EXPECT_NE(Resp.find("X-Next-Index: 120"), std::string::npos) << Resp;
    std::string Lines = httpBody(Resp);
    EXPECT_EQ(std::count(Lines.begin(), Lines.end(), '\n'), 120);
    Lines = httpBody(
        httpReq(S.port(), "GET", "/jobs/job-000001/progress?from=118"));
    EXPECT_EQ(std::count(Lines.begin(), Lines.end(), '\n'), 2);
    EXPECT_EQ(httpBody(httpReq(S.port(), "GET", "/jobs/job-000001/result")),
              Resumed);
    S.stop();
  }
  EXPECT_EQ(Resumed, RefResult)
      << "drain + restart must land on the uninterrupted result";

  sweep::CheckpointMeta RefMeta, Meta;
  std::map<uint64_t, sweep::SlotRecord> RefRecords, Records;
  ASSERT_TRUE(canonicalJournal(JobStore(RefDir).paths("job-000001").Journal,
                               RefMeta, RefRecords));
  ASSERT_TRUE(canonicalJournal(JobStore(Dir).paths("job-000001").Journal,
                               Meta, Records));
  EXPECT_TRUE(RefMeta == Meta);
  EXPECT_TRUE(RefRecords == Records);

  removeTree(RefDir);
  removeTree(Dir);
}

TEST(SweepService, ResumedJobRunsWithItsJournaledSlotsCounted) {
  // Slots of a millisecond or more, so polls land while the resumed job
  // runs: a resumed job starts from its journal, and so does SlotsDone.
  std::string Dir = tempDir("resume-count");
  seedJob(Dir, slowGrsSpec(100, 2000));
  ServiceOptions O;
  O.StateDir = Dir;
  O.ForceForkFree = true;
  uint64_t ParkedSlots = 0;
  {
    SweepService S(O);
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
    for (int Spin = 0; Spin < 10'000; ++Spin) {
      JobStatus St;
      if (S.status("job-000001", St) && St.SlotsDone >= 10)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    S.drain();
    ASSERT_TRUE(S.waitDrained(30'000));
    JobStatus St;
    ASSERT_TRUE(S.status("job-000001", St));
    ASSERT_EQ(St.State, JobState::Queued);
    ParkedSlots = St.SlotsDone;
    S.stop();
  }
  ASSERT_GE(ParkedSlots, 10u);

  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  uint64_t RunningPolls = 0;
  JobStatus St;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (S.status("job-000001", St) && St.State != JobState::Done &&
         St.State != JobState::Failed &&
         std::chrono::steady_clock::now() < Deadline) {
    if (St.State == JobState::Running) {
      ++RunningPolls;
      EXPECT_GE(St.SlotsDone, ParkedSlots) << "poll " << RunningPolls;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(St.State, JobState::Done) << St.Error;
  EXPECT_GT(RunningPolls, 0u) << "no poll saw the resumed job run";
  S.stop();
  removeTree(Dir);
}

TEST(SweepService, IdleStartStopNeverLosesTheDrainWakeup) {
  // drain() must publish StopRequested under the scheduler's mutex: a
  // store landing between the scheduler's predicate check and its wait
  // loses the notify, and stop() then joins a scheduler that sleeps
  // forever. An idle start -> stop puts drain() right on that window.
  // A lost wakeup fails the cycle instead of hanging the suite: the
  // test repeats drain() until stop() returns.
  std::string Dir = tempDir("start-stop");
  for (int Cycle = 0; Cycle < 200; ++Cycle) {
    ServiceOptions O;
    O.StateDir = Dir;
    O.PoolWorkers = 1;
    SweepService S(O);
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
    std::future<void> Stopped =
        std::async(std::launch::async, [&S] { S.stop(); });
    if (Stopped.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "cycle " << Cycle << ": stop() lost the drain wakeup";
      while (Stopped.wait_for(std::chrono::milliseconds(10)) !=
             std::future_status::ready)
        S.drain();
    }
  }
  removeTree(Dir);
}

TEST(SweepService, RefusesToResumeAJournalWrittenByADifferentSpec) {
  // Park a half-done job...
  std::string Dir = tempDir("refusal");
  seedJob(Dir, slowGrsSpec(500, 30));
  {
    ServiceOptions O;
    O.StateDir = Dir;
    O.ForceForkFree = true;
    SweepService S(O);
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
    for (int Spin = 0; Spin < 10'000; ++Spin) {
      JobStatus St;
      if (S.status("job-000001", St) && St.SlotsDone >= 3)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    S.drain();
    ASSERT_TRUE(S.waitDrained(30'000));
    S.stop();
  }
  ASSERT_TRUE(JobStore::exists(JobStore(Dir).paths("job-000001").Journal));

  // ...then edit spec.json under it (a different preempt probability:
  // same seed count, different recipe) and restart.
  {
    JobStore Store(Dir);
    support::Json V;
    std::string Error;
    ASSERT_TRUE(
        support::parseJson(slowGrsSpec(500, 30, ",\"preempt\":0.35"), V,
                           Error));
    JobSpec Tampered;
    ASSERT_TRUE(JobSpec::parse(V, Tampered, Error));
    ASSERT_TRUE(Store.writeAtomic(Store.paths("job-000001").Spec,
                                  support::renderJsonPretty(Tampered.toJson()),
                                  Error));
  }
  ServiceOptions O;
  O.StateDir = Dir;
  O.ForceForkFree = true;
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ASSERT_TRUE(S.waitTerminal("job-000001", 30'000));
  JobStatus St;
  ASSERT_TRUE(S.status("job-000001", St));
  EXPECT_EQ(St.State, JobState::Failed);
  EXPECT_NE(St.Error.find("refusing to resume"), std::string::npos)
      << St.Error;
  S.stop();
  removeTree(Dir);
}

TEST(SweepService, PoolForksAmortizeAcrossJobs) {
  std::string Dir = tempDir("amortize");
  ServiceOptions O;
  O.StateDir = Dir;
  O.PoolWorkers = 2;
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  const unsigned Jobs = 5;
  for (unsigned J = 1; J <= Jobs; ++J) {
    std::string Resp =
        httpReq(S.port(), "POST", "/jobs", patternSpec(12, "pool"));
    ASSERT_NE(Resp.find("HTTP/1.1 202"), std::string::npos) << Resp;
    ASSERT_TRUE(S.waitTerminal(JobStore::idForSequence(J), 60'000));
    JobStatus St;
    ASSERT_TRUE(S.status(JobStore::idForSequence(J), St));
    ASSERT_EQ(St.State, JobState::Done) << St.Error;
  }
  sweep::PoolHostStats HS = S.poolStats();
  EXPECT_EQ(HS.JobsRun, Jobs);
  // THE amortization claim: five jobs, and the pool forked its two
  // seats exactly once. O(pool size), not O(jobs x slots).
  EXPECT_EQ(HS.TotalSpawns, 2u);
  S.stop();
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// The centerpiece: kill -9 at randomized points, then at every byte
//===----------------------------------------------------------------------===//

namespace {

/// The child half of the kill battery: run a service over \p Dir (its
/// recovery scan admits and runs the seeded job) and sleep until
/// SIGKILLed. Never returns into gtest.
[[noreturn]] void killBatteryChild(const std::string &Dir) {
  ServiceOptions O;
  O.StateDir = Dir;
  O.PoolWorkers = 2;
  SweepService S(O);
  std::string Error;
  if (!S.start(Error))
    _exit(97);
  for (;;)
    pause();
}

} // namespace

TEST(KillBattery, SigkillAtRandomPointsThenRestartIsBitIdentical) {
  // The job: a grs body with real per-slot cost (about 2 ms) on the REAL
  // pool, so SIGKILL lands between worker commits, mid-journal-append.
  std::string Spec = slowGrsSpec(96, 2000, "", "pool");

  std::string RefDir = tempDir("kill-ref");
  seedJob(RefDir, Spec);
  std::string RefResult = runToTerminal(RefDir, /*ForceForkFree=*/false);
  ASSERT_FALSE(RefResult.empty());
  sweep::CheckpointMeta RefMeta;
  std::map<uint64_t, sweep::SlotRecord> RefRecords;
  ASSERT_TRUE(canonicalJournal(JobStore(RefDir).paths("job-000001").Journal,
                               RefMeta, RefRecords));
  ASSERT_EQ(RefRecords.size(), 96u);

  support::Rng Rng(0x5eed5eedULL);
  for (int It = 0; It < 6; ++It) {
    SCOPED_TRACE(It);
    std::string Dir = tempDir("kill-" + std::to_string(It));
    seedJob(Dir, Spec);
    JobPaths P = JobStore(Dir).paths("job-000001");

    pid_t Child = fork();
    ASSERT_GE(Child, 0);
    if (Child == 0)
      killBatteryChild(Dir); // never returns
    // Progress, not the clock, picks the kill point: SIGKILL once the
    // journal holds K committed records, so where the kill lands does not
    // depend on how fast the host runs the job.
    uint64_t K = Rng.nextBelow(81);
    bool Reached = false;
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!Reached && std::chrono::steady_clock::now() < Deadline) {
      sweep::CheckpointMeta Meta;
      std::map<uint64_t, sweep::SlotRecord> Records;
      Reached = canonicalJournal(P.Journal, Meta, Records) &&
                Records.size() >= K;
      if (!Reached)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    kill(Child, SIGKILL);
    int Status = 0;
    waitpid(Child, &Status, 0);
    ASSERT_TRUE(Reached) << "the journal never held " << K << " records";
    ASSERT_TRUE(WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL)
        << "child must die by OUR kill, not its own bug: " << Status;
    EXPECT_FALSE(JobStore::exists(P.Result))
        << "the kill after " << K << " records did not land mid-job";

    // Whatever the dead daemon committed is the floor: those exact
    // records must survive the restart (zero lost committed records).
    sweep::CheckpointMeta Pre;
    std::map<uint64_t, sweep::SlotRecord> Committed;
    bool HadJournal = canonicalJournal(P.Journal, Pre, Committed);

    std::string Resumed = runToTerminal(Dir, /*ForceForkFree=*/false);
    EXPECT_EQ(Resumed, RefResult) << "killed after " << K << " records";

    sweep::CheckpointMeta Meta;
    std::map<uint64_t, sweep::SlotRecord> Records;
    ASSERT_TRUE(canonicalJournal(P.Journal, Meta, Records));
    EXPECT_TRUE(Meta == RefMeta);
    EXPECT_TRUE(Records == RefRecords)
        << "canonical journal must match the uninterrupted run";
    if (HadJournal)
      for (const auto &E : Committed) {
        auto Found = Records.find(E.first);
        ASSERT_NE(Found, Records.end()) << "lost committed slot " << E.first;
        EXPECT_TRUE(Found->second == E.second)
            << "committed slot " << E.first << " changed across restart";
      }
    removeTree(Dir);
  }
  removeTree(RefDir);
}

TEST(KillBattery, EveryJournalTruncationPrefixResumesBitIdentically) {
  // Single-threaded + in-process so the reference journal's BYTES are
  // deterministic, then replay recovery against every prefix a crash
  // could have left (the service-level twin of the checkpoint codec's
  // own truncation battery). The body is race-FREE on purpose: records
  // then carry no report payloads, which keeps the journal small enough
  // that every single byte boundary is affordable to replay.
  std::string Spec =
      "{\"body\":{\"kind\":\"grs\",\"source\":\"func main() {\\n\\tx := "
      "0\\n\\tfor i := 0; i < 10; i = i + 1 {\\n\\t\\tx = x + "
      "1\\n\\t}\\n}\\n\"},\"num_seeds\":6,\"executor\":\"resilient\","
      "\"threads\":1}";
  std::string RefDir = tempDir("trunc-ref");
  seedJob(RefDir, Spec);
  std::string RefResult = runToTerminal(RefDir, /*ForceForkFree=*/true);
  std::string Journal;
  ASSERT_TRUE(JobStore::readFile(
      JobStore(RefDir).paths("job-000001").Journal, Journal));
  ASSERT_GT(Journal.size(), 0u);
  sweep::CheckpointMeta RefMeta;
  std::map<uint64_t, sweep::SlotRecord> RefRecords;
  ASSERT_TRUE(canonicalJournal(JobStore(RefDir).paths("job-000001").Journal,
                               RefMeta, RefRecords));

  std::string Dir = tempDir("trunc");
  for (size_t Len = 0; Len <= Journal.size(); ++Len) {
    seedJob(Dir, Spec, Journal.substr(0, Len), /*HaveJournal=*/true);
    std::string Resumed = runToTerminal(Dir, /*ForceForkFree=*/true);
    ASSERT_EQ(Resumed, RefResult) << "prefix " << Len << " diverged";
    sweep::CheckpointMeta Meta;
    std::map<uint64_t, sweep::SlotRecord> Records;
    ASSERT_TRUE(canonicalJournal(JobStore(Dir).paths("job-000001").Journal,
                                 Meta, Records))
        << "prefix " << Len;
    ASSERT_TRUE(Meta == RefMeta) << "prefix " << Len;
    ASSERT_TRUE(Records == RefRecords) << "prefix " << Len;
    removeTree(Dir);
  }
  removeTree(RefDir);
}

TEST(SweepService, RestartServesTerminalJobsAndContinuesIdSequence) {
  std::string Dir = tempDir("restart-ids");
  seedJob(Dir, patternSpec(8, "resilient"));
  std::string First = runToTerminal(Dir, /*ForceForkFree=*/true);
  ASSERT_FALSE(First.empty());

  // Restart: the terminal job is served from disk (no re-run — its
  // journal is untouched), and a new admission continues the sequence.
  ServiceOptions O;
  O.StateDir = Dir;
  O.ForceForkFree = true;
  SweepService S(O);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  JobStatus St;
  ASSERT_TRUE(S.status("job-000001", St));
  EXPECT_EQ(St.State, JobState::Done);
  std::string Resp =
      httpReq(S.port(), "POST", "/jobs", patternSpec(8, "resilient"));
  EXPECT_NE(Resp.find("job-000002"), std::string::npos) << Resp;
  ASSERT_TRUE(S.waitTerminal("job-000002", 60'000));
  S.stop();
  removeTree(Dir);
}

#endif // GRS_SVC_TEST_FORK
