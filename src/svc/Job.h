//===- svc/Job.h - Sweep-service job specs & state machine ------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a sweep-service job IS: a JSON recipe (`POST /jobs` body =
/// spec.json on disk = the spec bytes a PoolHost worker resolves) plus
/// the job state machine the service drives it through.
///
/// The spec is deliberately a PURE VALUE. Everything that affects a
/// verdict — the program under sweep (a corpus pattern id or inline
/// `.grs` source), the seed range, the executor, the retry policy, the
/// fault plan — lives in the spec; everything that doesn't (wall-clock
/// deadlines, job-level retry cadence) is carried alongside but excluded
/// from determinism claims. Two consequences the service builds on:
///
///  * resolve() is a pure function of the spec bytes, so the SAME
///    function serves as the PoolHost SpecResolver on both sides of the
///    fork — the parent validates at admission, the worker re-derives
///    the runnable body from the spec bytes its Job frame carries, and
///    they cannot disagree.
///
///  * hash() (Fnv1a over the canonical compact rendering) identifies
///    the full recipe. The service feeds it through ResilientOptions::
///    OptionsSalt into the journal's CheckpointMeta, so a journal is
///    bound to the EXACT job spec that wrote it: restart after someone
///    edited spec.json on disk and the meta mismatch makes the daemon
///    refuse to resume, mirroring openResilientCheckpoint's refusal to
///    clobber a journal from a different recipe.
///
/// State machine (see DESIGN.md §15 for the full protocol):
///
///   Queued -> Running -> Done                (result.json written)
///                     \-> Failed             (result.json written: spec
///                                             rot, journal refusal,
///                                             deadline, retries spent)
///                     \-> Queued             (drain: journal keeps the
///                                             committed slots; restart
///                                             resumes the rest)
///
/// Done/Failed are terminal and exactly the states with a result.json;
/// recovery classifies a job dir purely by which files exist.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SVC_JOB_H
#define GRS_SVC_JOB_H

#include "support/Json.h"
#include "sweep/Resilient.h"

#include <cstdint>
#include <string>

namespace grs {
namespace svc {

enum class JobState : uint8_t { Queued, Running, Done, Failed };

/// Stable lower-case name ("queued" / "running" / "done" / "failed").
const char *jobStateName(JobState S);

/// Which engine executes the job's slots.
enum class Executor : uint8_t {
  Pool,      ///< the service's shared fork-server pool (sweep::PoolHost)
  Resilient, ///< in-process sweep::resilient (no fork, no sandbox)
};

/// A parsed, validated job spec. Field defaults ARE the wire defaults:
/// an omitted spec key means the value below.
struct JobSpec {
  /// The program under sweep: exactly one of Pattern / Source is set.
  std::string Pattern; ///< corpus pattern id (corpus::allPatterns)
  bool Fixed = false;  ///< pattern only: sweep the fixed variant
  std::string Source;  ///< inline .grs program (lang::parseProgram)

  uint64_t FirstSeed = 1;
  uint64_t NumSeeds = 50;
  Executor Exec = Executor::Pool;
  /// Worker threads for the Resilient executor (and the pool's fork-free
  /// degradation rung), at most 256. The pool's width is a HOST property
  /// — fixed when the service forked its workers — so this does not
  /// resize it.
  unsigned Threads = 1;
  uint32_t MaxAttempts = 3; ///< in [1, 100]
  double PreemptProbability = 0.2;
  uint64_t MaxSteps = 2'000'000;
  /// Per-run watchdog. Nonzero is enforced at parse: a service cannot
  /// admit a job its executors have no way to interrupt.
  uint64_t WatchdogMillis = 2'000;

  /// Fault plan (inject::makeFaultPlan over the seed range). Grs bodies
  /// only: corpus patterns host their own Runtime internally, where the
  /// injector cannot reach.
  bool HaveFaultPlan = false;
  uint64_t FaultPlanSeed = 1;
  double FaultRate = 0.05;
  uint64_t FaultLatencyMicros = 200;
  bool FaultLethal = false; ///< enable the process-lethal kinds
  double FaultChronicFraction = 0.1;

  /// Job-level policy (NOT part of any determinism claim).
  /// 0 = none; the clock starts per daemon run and is checked where a slot
  /// commits, so a job that hits it has committed at least one slot.
  uint64_t DeadlineMillis = 0;
  uint32_t JobRetries = 0; ///< extra whole-job tries after a failure, <= 100
  /// The first retry's wait (<= 60000); each later wait doubles, capped
  /// at 60 s.
  uint64_t JobRetryBackoffMillis = 100;

  /// Decodes \p V (strict: unknown keys are errors — a typo'd knob must
  /// not silently sweep with defaults). \returns false with a message.
  static bool parse(const support::Json &V, JobSpec &Out,
                    std::string &Error);

  /// The canonical JSON tree: fixed key order, every field explicit.
  /// parse(toJson()) round-trips exactly.
  support::Json toJson() const;

  /// Canonical wire form: renderJson(toJson()). The bytes the service
  /// sends to the pool's workers and hashes.
  std::string canonicalBytes() const;

  /// Fnv1a over canonicalBytes() — the job's recipe identity.
  uint64_t hash() const;

  /// Builds runnable ResilientOptions from this spec: body constructed
  /// (pattern looked up / source parsed, fault plan woven in), verdict
  /// knobs set, OptionsSalt = hash(). Parent-side handles (Metrics,
  /// Timeline, CheckpointPath, CancelFlag, OnSlotDone) are left null —
  /// the caller owns those. \returns false with a message when the body
  /// cannot be built (unknown pattern, grs parse error).
  bool resolve(sweep::ResilientOptions &Out, std::string &Error) const;
};

/// Spec-bytes -> options adapter with the sweep::SpecResolver shape:
/// parse + JobSpec::parse + resolve. The service installs exactly this
/// as its PoolHost resolver.
bool resolveSpecBytes(const uint8_t *Bytes, size_t Len,
                      sweep::ResilientOptions &Out);

} // namespace svc
} // namespace grs

#endif // GRS_SVC_JOB_H
