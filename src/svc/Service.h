//===- svc/Service.h - Crash-recoverable sweep service ----------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control plane: a long-running daemon that accepts sweep jobs over
/// HTTP, runs them on ONE persistent fork-server pool (sweep::PoolHost —
/// workers forked once, amortized across every job), journals each job's
/// slots crash-consistently, and survives kill -9 at ANY byte boundary:
/// a restarted service re-admits every in-flight job from its on-disk
/// spec, resumes it from its journal, and lands on bit-identical results
/// — same fingerprints, same canonical journal records, zero committed
/// records lost. This is the paper's §3 deployment shape (a service that
/// ran daily over 100K+ tests for months) rebuilt over our executors.
///
/// Mounted on obs::MetricsServer's single serving thread:
///
///   POST /jobs                 admit a JSON job spec (svc/Job.h).
///                              202 {"id":...} on admission; 400 on a
///                              rotten spec; 429 + Retry-After when the
///                              bounded queue is full (overload is
///                              EXPLICIT — nothing is silently dropped);
///                              503 while draining.
///   GET  /jobs                 id -> state summary list.
///   GET  /jobs/<id>            full status JSON (state, slot counts,
///                              spec hash, error).
///   GET  /jobs/<id>/progress   JSON-lines, one journaled slot record
///                              per line, in journal order across
///                              restarts; ?from=N starts at record N
///                              (poll-friendly streaming on a one-thread
///                              server). X-Next-Index carries the cursor:
///                              the records in the journal.
///   GET  /jobs/<id>/result     result.json from the job directory; 404
///                              until the job is terminal.
///   GET  /readyz               readiness: 200 admitting / 503 not
///                              (draining or stopped).
///   GET  /healthz              liveness (built-in: the serving thread
///                              answers it even while a job runs).
///   /metrics, /metrics.jsonl   the service's registry, republished at
///                              job boundaries.
///
/// Scheduling: admissions append to a bounded FIFO; one scheduler thread
/// pops and runs jobs in admission order (determinism beats throughput
/// here — parallel jobs would contend for the one pool anyway). It is the
/// only thread the service starts. Each job gets deadline enforcement
/// (checked where a slot commits, then cooperative cancel -> terminal
/// Failed, with at least one slot committed), whole-job retries with
/// doubling backoff (capped at 60 s) on infrastructure failure, and a
/// result.json written atomically at the end.
///
/// Graceful drain (SIGTERM path): drain() stops admission (429s become
/// 503s), cancels the in-flight job cooperatively — committed slots are
/// already journaled, and the cancel journals every record the workers
/// had already sent down their sockets — and parks everything else as
/// Queued state on disk.
/// waitDrained() then returns and the host exits 0. The next start()
/// resumes every parked job from its journal.
///
/// Memory: per job the daemon keeps only its JobStatus; the spec lives
/// in the queue until the scheduler takes it. Results and progress are
/// read from the job directory (svc/Store.h), their only copy, so a
/// served job costs the daemon one small status record.
///
/// Recovery protocol (every start()): scan the store in id order; a job
/// dir with a result.json is terminal (served as-is); one with only a
/// spec.json is re-admitted with Resume — BUT first the journal's meta
/// (which binds JobSpec::hash via OptionsSalt) is checked against the
/// spec on disk, and a mismatch fails the job with a refusal instead of
/// running somebody else's journal or silently restarting from scratch.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SVC_SERVICE_H
#define GRS_SVC_SERVICE_H

#include "obs/Http.h"
#include "obs/Metrics.h"
#include "svc/Store.h"
#include "sweep/Pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace grs {
namespace svc {

struct ServiceOptions {
  /// Durable state root (required). Created if absent.
  std::string StateDir;
  /// HTTP port (0 = ephemeral; see port()).
  uint16_t Port = 0;
  /// Admission bound: queued-but-not-terminal jobs past this get 429.
  size_t QueueBound = 8;
  /// What a 429 tells the client to wait, seconds.
  uint64_t RetryAfterSeconds = 1;
  /// Pool width (0 = hardware concurrency).
  unsigned PoolWorkers = 0;
  /// Degradation forcing for tests: run every job on the in-process
  /// rung (still journaled, still cancellable, still resumable).
  bool ForceForkFree = false;
};

/// Point-in-time job status (copied out under the service lock). It is
/// also the service's whole in-memory record of a job.
struct JobStatus {
  std::string Id;
  JobState State = JobState::Queued;
  uint64_t SpecHash = 0;
  uint64_t SlotsTotal = 0;
  uint64_t SlotsDone = 0;  ///< journaled records (resumed ones included)
  uint64_t RunsAttempted = 0; ///< whole-job tries this daemon run
  std::string Error;       ///< terminal failure reason ("" otherwise)
};

class SweepService {
public:
  explicit SweepService(ServiceOptions Opts);
  ~SweepService();
  SweepService(const SweepService &) = delete;
  SweepService &operator=(const SweepService &) = delete;

  /// Recovery scan -> re-admission -> HTTP up -> scheduler up, in that
  /// order (recovered jobs precede anything a client can admit).
  /// \returns false with a message when the store or the socket refuse.
  bool start(std::string &Error);

  /// Stops admission and cancels the in-flight job at slot granularity.
  /// Returns immediately; waitDrained() observes completion. Idempotent.
  void drain();

  /// Blocks until the scheduler parked everything (\p TimeoutMillis cap).
  /// \returns true when drained in time.
  bool waitDrained(uint64_t TimeoutMillis);

  /// drain() + join + HTTP down. Idempotent; also run by the destructor.
  void stop();

  uint16_t port() const { return Http.port(); }
  bool accepting() const { return Accepting.load(); }

  /// Snapshot of one job ([ok] false for an unknown id) / all jobs in
  /// id order. Thread-safe.
  bool status(const std::string &Id, JobStatus &Out) const;
  std::vector<JobStatus> statusAll() const;

  /// Blocks until \p Id is terminal (Done/Failed). \returns false on
  /// timeout or unknown id.
  bool waitTerminal(const std::string &Id, uint64_t TimeoutMillis);

  /// Host-lifetime pool counters (spawn amortization evidence).
  sweep::PoolHostStats poolStats() const;

  /// Jobs refused with 429 since start (the shed counter).
  uint64_t shedCount() const { return Shed.load(); }

private:
  /// An admitted or recovered job the scheduler has not taken yet.
  struct QueuedJob {
    std::string Id;
    JobSpec Spec;
  };

  bool handleHttp(const obs::HttpRequest &Req, obs::HttpResponse &Resp);
  void handleAdmit(const obs::HttpRequest &Req, obs::HttpResponse &Resp);
  void schedulerMain();
  /// Runs one job to a terminal state (or parks it on drain).
  void runJob(const std::string &Id, const JobSpec &Spec);
  /// Writes the failed result.json, then marks the job Failed (durable,
  /// then visible, as admission does).
  void failJob(const std::string &Id, uint64_t SpecHash,
               const std::string &Error);

  ServiceOptions Opts;
  JobStore Store;
  obs::MetricsServer Http;
  obs::Registry Reg; ///< scheduler-thread-owned; published at job ends
  std::unique_ptr<sweep::PoolHost> Pool;

  mutable std::mutex Mu;
  std::condition_variable Cv;
  /// Ordered: listing = id order. Entries are never erased.
  std::map<std::string, JobStatus> Jobs;
  std::deque<QueuedJob> Queue;
  uint64_t NextSeq = 1;

  std::thread Scheduler;
  std::atomic<bool> Accepting{false};
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Drained{false};
  std::atomic<bool> CancelCurrent{false};
  std::atomic<uint64_t> Shed{0};
  bool Started = false;
};

} // namespace svc
} // namespace grs

#endif // GRS_SVC_SERVICE_H
