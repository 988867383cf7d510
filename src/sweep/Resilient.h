//===- sweep/Resilient.h - Hardened sweep execution -------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's containment layer: a sweep executor that survives
/// misbehaving bodies the way the paper's deployment pipeline survived
/// six months of daily runs over 100K+ real unit tests (§3) — a hanging,
/// crashing or flaky test loses its own run, never the sweep.
///
/// Per slot (seed), the executor:
///
///  1. runs the body with the slot's seed (watchdog armed if the caller
///     set RunOptions::WatchdogMillis);
///  2. classifies the outcome: races / leaks / panics / deadlocks are
///     VERDICTS (the sweep's whole purpose) and complete the slot, while
///     watchdog fires, foreign C++ exceptions and step-limit trips are
///     INFRASTRUCTURE faults (FaultClass) that invalidate it;
///  3. retries infra-faulted slots up to MaxAttempts with exponential
///     wall-clock backoff — retry is deterministic: the run is a pure
///     function of the seed, so the retry trajectory (and therefore the
///     final SlotRecord) is identical across thread counts and reruns;
///  4. quarantines slots whose every attempt faulted: they are excluded
///     from the SweepResult aggregate and surfaced separately, in slot
///     order, with their fault class and deterministic detail.
///
/// Completed SlotRecords are merged IN SLOT ORDER, which replays
/// pipeline::sweep's serial aggregation exactly: for any Threads value,
/// the aggregate over non-quarantined slots is bit-identical (operator==,
/// sample reports included) to the serial sweep over those same slots —
/// and with no faults, to pipeline::sweep itself. The chaos suite
/// (tests/ResilienceTest.cpp, FuzzTest ChaosFuzz) pins this.
///
/// With CheckpointPath set, every completed slot is appended to a
/// crash-consistent journal (sweep/Checkpoint.h) as soon as it finishes;
/// Resume loads complete records, reruns only the missing slots, and
/// produces a bit-identical ResilientResult.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SWEEP_RESILIENT_H
#define GRS_SWEEP_RESILIENT_H

#include "sweep/Adaptive.h"
#include "sweep/Checkpoint.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace grs {
namespace sweep {

struct ResilientOptions {
  /// Seed range, pipeline::SweepOptions-style: slot I runs seed
  /// FirstSeed + I.
  uint64_t FirstSeed = 1;
  uint64_t NumSeeds = 50;
  /// Workers: the calling thread plus Threads - 1 helper threads
  /// that persist across calls (sweep/Helpers.h); 0 = hardware
  /// concurrency. The result is bit-identical regardless.
  unsigned Threads = 1;
  /// Tries per slot before quarantine (min 1). Matters for faults that
  /// are nondeterministic in real deployments; against the deterministic
  /// injector a faulted slot consumes exactly MaxAttempts tries.
  uint32_t MaxAttempts = 3;
  /// Base of the exponential backoff between attempts, in microseconds
  /// (attempt N sleeps Base << (N-1)); 0 disables the sleep. Wall-clock
  /// only — never affects verdicts.
  uint64_t RetryBackoffMicros = 100;
  /// Base options for every run (Seed and OnReport overwritten per run).
  /// Set WatchdogMillis: without it a CpuSpin-style body hangs the
  /// worker forever, which no executor policy can contain.
  rt::RunOptions Run;
  /// The program under sweep. Required.
  Runner Body;
  /// Optional registry for `grs_resilience_*` instruments, written
  /// serially after the merge (obs::Registry is not thread-safe).
  obs::Registry *Metrics = nullptr;
  /// Optional flight recorder (borrowed): each worker records slot spans
  /// with nested attempt spans plus retry/quarantine instants on its own
  /// "resilient-worker-<i>" track. Under sweep::pooled the SAME spans
  /// are recorded worker-side and sent back over the worker's socket
  /// with each record, so forked and fork-free timelines agree on slot
  /// spans. Never
  /// perturbs runs, retry trajectories, or checkpoint journals.
  obs::Timeline *Timeline = nullptr;
  /// Journal path; empty disables checkpointing.
  std::string CheckpointPath;
  /// Load CheckpointPath first and rerun only the missing slots. A
  /// missing file degrades to a fresh journaled sweep; a meta mismatch
  /// (different recipe) disables journaling and reports CheckpointError
  /// rather than clobbering someone else's journal.
  bool Resume = false;
  /// Extra caller-chosen entropy folded into resilientOptionsHash when
  /// nonzero. The sweep service sets this to its job-spec hash (executor
  /// + fault plan + body identity), so a journal is bound to the FULL
  /// job recipe, not just the scheduler-visible RunOptions — a restarted
  /// daemon then refuses to resume a job whose spec changed on disk via
  /// the ordinary meta-mismatch path. Zero (the default) leaves every
  /// pre-existing journal hash unchanged.
  uint64_t OptionsSalt = 0;
  /// Cooperative cancellation (borrowed; may be null). Checked between
  /// slots: once set, workers claim no further slots and resilient()
  /// returns with the journal intact — already-completed slots are
  /// appended, unstarted ones are simply absent, so a Resume re-run
  /// finishes the sweep bit-identically. Slot granularity only; a slot
  /// mid-attempt completes (bound its latency with Run.WatchdogMillis).
  std::atomic<bool> *CancelFlag = nullptr;
  /// Per-slot completion hook (may be empty), called under the journal
  /// lock AFTER the record is journaled, in completion order (not slot
  /// order — parallel sweeps complete out of order). The service's
  /// progress stream hangs off this. Must be cheap and must not call
  /// back into the executor.
  std::function<void(const SlotRecord &)> OnSlotDone;
};

struct ResilientResult {
  /// Aggregate over non-quarantined slots, merged in slot order —
  /// bit-identical to the serial sweep over those slots.
  pipeline::SweepResult Sweep;
  /// Quarantined slots, slot order.
  std::vector<SlotRecord> Quarantined;
  /// Extra attempts beyond the first, summed over executed slots.
  uint64_t Retries = 0;
  /// Slots satisfied from the checkpoint instead of executed.
  uint64_t ResumedSlots = 0;
  /// Slots neither resumed nor executed — nonzero only when CancelFlag
  /// stopped the sweep early. They are absent from the aggregate AND the
  /// journal; a Resume re-run picks up exactly these.
  uint64_t UnfinishedSlots = 0;
  /// Non-fatal checkpoint problem ("" when none): meta mismatch, I/O
  /// failure. The sweep itself still completes.
  std::string CheckpointError;

  bool operator==(const ResilientResult &) const = default;
};

/// Fnv1a over the verdict-relevant recipe (seed range, retry policy,
/// scheduler-visible RunOptions). Binds checkpoint journals to recipes.
uint64_t resilientOptionsHash(const ResilientOptions &Opts);

/// Runs the hardened sweep. See file comment.
ResilientResult resilient(const ResilientOptions &Opts);

//===----------------------------------------------------------------------===//
// Building blocks shared with sweep::pooled
//
// The fork-server pool (sweep/Pool.h) runs the SAME slot code inside its
// sandboxed workers and the SAME merge on the parent side, so parallel ==
// serial == fork-free stays bit-for-bit by construction rather than by
// reimplementation.
//===----------------------------------------------------------------------===//

/// Infra-fault classification of one in-process run. Watchdog beats
/// foreign exception beats step limit when several fired in one run (a
/// spinning goroutine can also have left an exception behind). Process
/// deaths (Signal/OomKill/Rlimit/PartialExit) are classified by the
/// pool supervisor from waitpid(), never from a RunResult.
FaultClass classifyRunFault(const rt::RunResult &Run);

/// Executes one slot of \p Opts: runs seed FirstSeed + Slot, retrying
/// in-process infra faults up to Opts.MaxAttempts with backoff, then
/// quarantines. \p FirstAttempt numbers the first try (RunOptions::
/// Attempt); a pool worker retrying a slot after a death passes the
/// process-level attempt so the per-slot attempt budget is unified
/// across process boundaries (in-process retries and respawns draw from
/// the same MaxAttempts).
/// \p Track, when set, receives the slot's flight-recorder spans (slot /
/// attempt / retry / quarantine). Thread-safe: touches nothing shared
/// (each track has one producer).
SlotRecord runResilientSlot(const ResilientOptions &Opts, uint64_t Slot,
                            uint32_t FirstAttempt = 1,
                            obs::TimelineTrack *Track = nullptr);

/// Merges completed slots in slot order into \p Result — pipeline::
/// sweep's serial aggregation restricted to non-quarantined slots;
/// quarantined ones are appended to Result.Quarantined.
void mergeSlotRecords(const std::vector<SlotRecord> &Slots,
                      ResilientResult &Result);

/// Checkpoint setup shared by resilient() and PoolHost::run(): when
/// Opts.CheckpointPath is set, loads a resumable journal (filling
/// \p Slots / \p Done for each complete record and counting
/// Result.ResumedSlots) and leaves \p Writer open for appends — or
/// reports via Result.CheckpointError without touching a journal that
/// belongs to a different recipe. \p Slots and \p Done must have
/// Opts.NumSeeds elements. The two executors share one journal format
/// and meta hash, so a sweep interrupted under one executor resumes
/// under the other.
void openResilientCheckpoint(const ResilientOptions &Opts,
                             CheckpointWriter &Writer,
                             std::vector<SlotRecord> &Slots,
                             std::vector<uint8_t> &Done,
                             ResilientResult &Result);

//===----------------------------------------------------------------------===//
// Plug-in constructors for the existing sweep engines' option structs
//===----------------------------------------------------------------------===//

/// Hardened form of a serial pipeline::sweep of \p S (Threads = 1).
ResilientOptions resilientFrom(const pipeline::SweepOptions &S, Runner Body);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_RESILIENT_H
