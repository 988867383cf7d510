//===- sweep/Pool.h - Persistent fork-server worker pool --------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's fast containment layer: a pre-forked pool of sandboxed
/// workers that OUTLIVE their slots and, since the sweep service, their
/// JOBS. A crashing run must lose only its own record (the paper's
/// pipeline ran every unit test every day), and forking a child per
/// slot buys that at several times the in-process cost. sweep::pooled
/// keeps the containment and forks once:
///
///   - Workers are forked ONCE (lazily respawned on death). Each holds
///     stdio and one end of its own socketpair(AF_UNIX, SOCK_STREAM),
///     nothing else. Both directions carry the journal's kind-tagged
///     frame codec (sweep/Checkpoint.h FrameKind): the host sends a Job
///     frame (the spec bytes) before a worker's first slot of each job,
///     then Slot frames (slot, attempt); the worker runs its slots in
///     order and answers each with a SlotRecord frame (plus a
///     TimelineChunk when traced).
///
///   - The host queues the job's (slot, attempt) pairs and hands each
///     live worker at most a small constant number of them, keeping a
///     FIFO of the slots each worker holds. A record must answer the
///     front of its worker's FIFO; anything else is a corrupt stream and
///     the worker is killed.
///
///   - End of file on a worker's socket is its death. The host reads the
///     stream to its end first, so every record the worker sent before
///     dying is delivered and never re-executed; the front of the FIFO
///     is then the victim, and the slots behind it go back to the queue
///     uncharged. Every unresolved slot is always either queued or held
///     by a live worker, so a lost record cannot hang a run; nothing has
///     a fixed capacity, so a warm host never re-forks.
///
/// Multi-job reuse: a std::function body cannot cross a fork that
/// already happened, so a PoolHost treats job recipes as DATA. The Job
/// frame carries the job's spec bytes, and a SpecResolver — fixed at host
/// construction, BEFORE any fork, so every worker inherits it — rebuilds
/// the ResilientOptions (body included) worker-side from them. The same
/// resolver runs parent-side for the checkpoint meta and the in-process
/// rung, so both sides of the fork boundary agree on the recipe by
/// construction.
///
/// Robustness is the design, not a side effect:
///
///   - Lazy respawn with exponential backoff: a dead worker is replaced
///     only when queued work exists, and a crash storm stretches the
///     respawn interval (RespawnBackoffMicros doubling up to a 500 ms
///     cap, reset by any delivered record) so a poison workload cannot
///     fork-bomb the parent.
///
///   - Poison-slot containment: each worker death charges the victim
///     slot one process-level attempt from the SAME MaxAttempts budget
///     the in-process executor uses, so a slot that kills every worker
///     it touches is quarantined after MaxAttempts deaths, with the same
///     attempt counts the in-process rung records for the same plan.
///
///   - Stall kills: a worker that holds slots but has answered nothing
///     for WorkerStallMillis is SIGKILLed (FaultClass::Watchdog).
///
///   - Cooperative cancellation (PoolRunRequest::CancelFlag): the host
///     SIGKILLs the workers, reaps them, reads their sockets to the end
///     and journals every record that arrived — a cancelled run loses
///     only unfinished work, and a Resume re-run finishes the job
///     bit-identically. This is what the service's SIGTERM drain and job
///     deadlines stand on.
///
///   - Death classification is one function (classifyChildDeath,
///     sweep/Sandbox.h): Watchdog (killed by the supervisor), Signal,
///     OomKill, Rlimit, PartialExit — one set of detail strings, so
///     journal comparisons hold even for quarantined slots.
///
///   - Graceful degradation: no fork (or no socket) for even one worker
///     of a job, or ForceForkFree -> the plain in-process resilient path,
///     where process-lethal injected faults downgrade to foreign
///     exceptions (inject::inSandbox). Both rungs reach bit-identical
///     sweep aggregates and quarantine decisions through the unified
///     attempt budget; only the containment strength and speed change.
///     PoolStats reports which rung ran.
///
/// Sandboxing: workers enter the inject sandbox, apply RLIMIT_AS (as
/// headroom above the host's size) and no core files, then optionally
/// tighten with landlock (deny all filesystem writes) and seccomp — each
/// layer probed at runtime and skipped without error where the kernel
/// lacks it (sweep/Sandbox.h). The journal never crosses the fork:
/// records travel over the socket and the parent appends them. Workers
/// therefore open NOTHING, and the seccomp tier denies every open. A
/// worker that runs out of address space exits with
/// inject::OomExitCode, which classifyChildDeath maps to OomKill.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SWEEP_POOL_H
#define GRS_SWEEP_POOL_H

#include "sweep/Resilient.h"
#include "sweep/Sandbox.h"

#include <cstdint>
#include <memory>

namespace grs {
namespace sweep {

//===----------------------------------------------------------------------===//
// Stats & results (shared by PoolHost::run and the pooled() wrapper)
//===----------------------------------------------------------------------===//

struct PoolStats {
  /// Workers forked during this run (initial spawns + respawns). A
  /// warm host runs whole jobs at 0.
  uint64_t WorkerSpawns = 0;
  /// Respawns after a worker death.
  uint64_t Respawns = 0;
  /// Stalled/corrupt workers the supervisor SIGKILLed.
  uint64_t SupervisorKills = 0;
  /// Worker deaths observed, by classification (indexed by FaultClass).
  uint64_t DeathsByClass[NumFaultClasses] = {};
  /// Slots quarantined where every charged attempt ended in a worker
  /// death — the poison-slot containment firing.
  uint64_t PoisonSlots = 0;
  /// Frame bytes read from worker sockets.
  uint64_t BytesReceived = 0;
  /// Flight-recorder chunks stitched from workers (0 unless traced).
  uint64_t TimelineChunks = 0;
  /// Respawns deferred by the backoff policy, and the total configured
  /// wait they added.
  uint64_t BackoffWaits = 0;
  uint64_t BackoffMicros = 0;
  /// Weakest sandbox tier any worker reported actually applying.
  SandboxTier Tier = SandboxTier::RlimitOnly;
  /// True when the in-process rung ran (sweep::resilient) instead of a
  /// pool: no worker could be forked, or ForceForkFree.
  bool ForkFree = false;
  /// True when CancelFlag ended the run before every slot resolved.
  bool Cancelled = false;

  /// Total worker deaths across classes.
  uint64_t deaths() const {
    uint64_t N = 0;
    for (uint64_t D : DeathsByClass)
      N += D;
    return N;
  }
};

struct PoolResult {
  /// Sweep aggregate + quarantine, same shape and same bit-for-bit
  /// guarantees as the other executors. Res.UnfinishedSlots is nonzero
  /// only for cancelled runs.
  ResilientResult Res;
  PoolStats Stats;
};

//===----------------------------------------------------------------------===//
// PoolHost: the persistent, multi-job pool
//===----------------------------------------------------------------------===//

/// Rebuilds a job recipe from its spec bytes. Runs on BOTH sides of the
/// fork boundary: in the parent (checkpoint meta, degradation rungs) and
/// in every worker (which inherited the resolver at fork). Must be a
/// pure function of the bytes — body, seed range, MaxAttempts, retry
/// policy, Run options, OptionsSalt. Parent-owned fields (Metrics,
/// Timeline, CheckpointPath, CancelFlag, OnSlotDone) are overwritten by
/// the host on each side; the resolver need not touch them. \returns
/// false on malformed bytes (the parent then fails the run; a worker
/// that somehow disagrees exits and is classified as a death).
using SpecResolver =
    std::function<bool(const uint8_t *Spec, size_t Len, ResilientOptions &Out)>;

struct PoolHostOptions {
  /// Worker seats (0 = hardware concurrency). Per run, spawning is
  /// clamped to the job's pending slots; idle live workers just sleep.
  unsigned Workers = 0;
  /// Recipe resolver; required. Fixed at construction so it exists
  /// before the first fork.
  SpecResolver Resolve;
  /// Worker address-space HEADROOM, bytes (0 leaves RLIMIT_AS unset): a
  /// worker starts with its host's whole address space, so its RLIMIT_AS
  /// is the host's size at fork() plus this many bytes. It turns a
  /// runaway allocation into a clean exit(inject::OomExitCode).
  uint64_t RlimitAsBytes = 256ull << 20;
  /// Stall deadline, ms: a worker that holds slots and answers nothing
  /// for this long is SIGKILLed (FaultClass::Watchdog). 0 disables.
  uint64_t WorkerStallMillis = 30'000;
  /// Respawn backoff: the first respawn of a death streak is immediate
  /// (a transient crash should not slow the sweep), then the Nth
  /// consecutive respawn (no delivered record in between) waits
  /// this << (N-2) microseconds, capped at 500 ms. 0 disables the wait
  /// entirely.
  uint64_t RespawnBackoffMicros = 1'000;
  /// Sandbox hardening opt-ins (sweep/Sandbox.h). Defaults off: the
  /// rlimit-only sandbox is the behavior-compatible baseline.
  bool EnableSeccomp = false;
  bool EnableLandlock = false;
  /// Skip straight to in-process resilient, for tests and hosts that
  /// know better.
  bool ForceForkFree = false;
};

/// One job handed to PoolHost::run. Spec bytes cross the fork boundary
/// (in a Job frame); everything else is parent-side machinery and never
/// does.
struct PoolRunRequest {
  /// Recipe bytes for the SpecResolver.
  std::vector<uint8_t> Spec;
  /// Journal path ("" disables) and resume-from-journal flag; the
  /// journal meta binds the resolved recipe hash (OptionsSalt included),
  /// so a spec change on disk is refused via the meta-mismatch path.
  std::string CheckpointPath;
  bool Resume = false;
  /// Optional instruments/flight recorder (borrowed, parent-side).
  obs::Registry *Metrics = nullptr;
  obs::Timeline *Timeline = nullptr;
  /// Cooperative cancel (borrowed; may be null). See file comment.
  std::atomic<bool> *CancelFlag = nullptr;
  /// Per-record completion hook, called on the supervising thread as
  /// records are journaled (delivery order, not slot order).
  std::function<void(const SlotRecord &)> OnSlotDone;
};

/// Host-lifetime counters — the spawn-amortization evidence.
struct PoolHostStats {
  uint64_t JobsRun = 0;     ///< run() calls that reached the pool rung
  uint64_t TotalSpawns = 0; ///< forks over the host's lifetime
  uint64_t CancelTeardowns = 0; ///< cancelled runs that killed the pool
};

/// A persistent fork-server pool serving a sequence of jobs. NOT
/// thread-safe: one run() at a time (the sweep service owns one host on
/// its scheduler thread). Destruction shuts the workers down gracefully.
class PoolHost {
public:
  explicit PoolHost(PoolHostOptions Opts);
  ~PoolHost();
  PoolHost(const PoolHost &) = delete;
  PoolHost &operator=(const PoolHost &) = delete;

  /// Runs one job to completion (or cancellation) on the pool, running
  /// it in-process when not one worker can be forked.
  PoolResult run(const PoolRunRequest &Req);

  /// Retires the workers: closes their sockets, waits a grace window
  /// for them to exit and SIGKILLs stragglers. Idempotent; run() after
  /// shutdown() starts a fresh pool.
  void shutdown();

  const PoolHostStats &hostStats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

//===----------------------------------------------------------------------===//
// One-shot wrapper
//===----------------------------------------------------------------------===//

struct PoolOptions {
  /// The underlying recipe: body, seed range, per-slot attempt budget,
  /// in-process retry/backoff (applies inside workers too), journal
  /// path + resume, metrics registry. Base.Threads is the number of
  /// pool WORKERS (0 = hardware concurrency, clamped to pending slots).
  ResilientOptions Base;
  /// Pool knobs. pooled() ignores Host.Workers (it takes the worker
  /// count from Base.Threads) and sets Resolve itself; every other field
  /// applies as set.
  PoolHostOptions Host;
};

/// Runs one sweep on a single-use pool: constructs a PoolHost whose
/// resolver returns Opts.Base (captured BEFORE the fork, so the body
/// crosses legally), runs, tears down. See file comment.
PoolResult pooled(const PoolOptions &Opts);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_POOL_H
