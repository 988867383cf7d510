//===- sweep/Pool.h - Persistent fork-server worker pool --------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's fast containment layer: a pre-forked pool of sandboxed
/// workers that OUTLIVE their slots — and, since the sweep service, their
/// JOBS. Forking a child per batch of slots buys process containment at
/// ~5x the in-process cost — a fork per batch, a pipe round-trip per
/// record, and a whole-batch refork on every death. sweep::pooled keeps
/// the containment and sheds the per-slot syscalls:
///
///   - Workers are forked ONCE (lazily respawned on death) and pull slot
///     assignments from a shared-memory work ring: the parent publishes
///     (job, slot, attempt) entries, workers claim them with a CAS on the
///     entry's Owner word, and sleep on a futex (or a sleep-poll
///     fallback) when the ring is empty. No pipe write per assignment.
///
///   - Results flow back through a per-worker shared-memory arena: the
///     worker appends kind-tagged checkpoint frames (SlotRecord +
///     TimelineChunk, the same codec the journal uses) to a SPSC
///     byte ring and rings a one-byte pipe doorbell so the parent's
///     poll() wakes. The ring's Produced cursor is a COMMIT CURSOR:
///     advanced only over fully-written bytes, so whatever the parent
///     drains after a worker death is an intact stream prefix — complete
///     frames are salvaged, the partial tail is discarded, and a record
///     the worker finished is NEVER lost or re-executed (the
///     zero-lost-non-faulted-records invariant, now syscall-free).
///
/// Multi-job reuse (the daemon-pool headroom from ROADMAP item 1): a
/// std::function body cannot cross a fork that already happened, so a
/// PoolHost treats job recipes as DATA. Each run() writes the job's spec
/// bytes into a shared-memory spec arena and a job-descriptor table;
/// work-ring entries carry the job index; and a SpecResolver — fixed at
/// host construction, BEFORE any fork, so every worker inherits it —
/// rebuilds the ResilientOptions (body included) worker-side from the
/// spec bytes. The same resolver runs parent-side for the checkpoint
/// meta and the degradation rungs, so both sides of the fork boundary
/// agree on the recipe by construction. When the append-only work ring,
/// the spec arena, or the job table fills, the host RECYCLES: drains,
/// retires the workers, and remaps — so cursor monotonicity (which the
/// claim protocol depends on) is never violated by reuse, and fork cost
/// stays O(pool size) per ring capacity of entries rather than
/// O(jobs x pool size).
///
/// Robustness is the design, not a side effect:
///
///   - Lazy respawn with exponential backoff: a dead worker is replaced
///     only when unclaimed work exists, and a crash storm stretches the
///     respawn interval (RespawnBackoffMicros doubling up to the cap,
///     reset by any delivered record) so a poison workload cannot
///     fork-bomb the parent.
///
///   - Poison-slot containment: each worker death charges the victim
///     slot one process-level attempt from the SAME MaxAttempts budget
///     the in-process executor uses, so a slot that kills every worker
///     it touches is quarantined after MaxAttempts deaths, with the same
///     attempt counts the in-process rung records for the same plan.
///     PoisonWorkerDeaths tightens that to K consecutive deaths for
///     hosts that want faster containment than the attempt budget.
///
///   - Cooperative cancellation (PoolRunRequest::CancelFlag): the host
///     stops claiming on behalf of the job, SIGKILLs the workers, then
///     salvages every committed frame from their arenas into the journal
///     before resetting — a cancelled run loses only uncommitted work,
///     and a Resume re-run finishes the job bit-identically. This is
///     what the service's SIGTERM drain and job deadlines stand on.
///
///   - Death classification is one function (classifyChildDeath,
///     sweep/Sandbox.h): Watchdog (stall-killed by the supervisor),
///     Signal, OomKill, Rlimit, PartialExit — one set of detail strings,
///     so journal comparisons hold even for quarantined slots.
///
///   - Graceful degradation: no fork, no usable shared memory, an mmap
///     that refuses the job's mapping, a job for which not one worker
///     could be forked (the mapping is dropped, so the next job's
///     workers claim nothing of it), or ForceForkFree -> the plain
///     in-process resilient path, where process-lethal injected faults
///     downgrade to foreign exceptions (inject::inSandbox); no futex ->
///     the pool runs with sleep-poll signalling. Every rung reaches
///     bit-identical sweep aggregates and quarantine decisions through
///     the unified attempt budget; only the containment strength and
///     speed change. PoolStats reports which rung ran.
///
/// Sandboxing and fd passing: workers enter the PR-4 inject sandbox,
/// apply the PR-5 rlimits, then optionally tighten with landlock (deny
/// all filesystem writes) and seccomp — each layer probed at runtime and
/// skipped without error where the kernel lacks it (sweep/Sandbox.h).
/// Every fd a worker needs is pre-opened by the parent and inherited:
/// the shm mapping pre-fork, the doorbell pipe at spawn, and the journal
/// never crosses at all (records travel through the arena; the parent
/// appends). Workers therefore open NOTHING, and DenyFileOpens (default
/// on) has the seccomp tier drop open/openat/openat2/creat outright
/// instead of merely denying write-mode flags. With UseCgroupMemory and
/// a writable cgroup-v2 memory controller, workers run under real
/// `memory.max` accounting and OOM classification reads `memory.events`
/// instead of the RLIMIT_AS + exit-97 convention (sweep/Cgroup.h).
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
  /// Frame bytes drained from worker arenas.
  uint64_t ArenaBytesReceived = 0;
  /// Flight-recorder chunks stitched from workers (0 unless traced).
  uint64_t TimelineChunks = 0;
  /// Respawns deferred by the backoff policy, and the total configured
  /// wait they added.
  uint64_t BackoffWaits = 0;
  uint64_t BackoffMicros = 0;
  /// Weakest sandbox tier any worker reported actually applying.
  SandboxTier Tier = SandboxTier::RlimitOnly;
  /// True when workers ran under cgroup-v2 memory accounting.
  bool CgroupMemory = false;
  /// True when pool signalling used futexes (false = sleep-poll rung).
  bool FutexSignalled = false;
  /// True when the in-process rung ran (sweep::resilient) instead of a
  /// pool: no fork, no usable shared memory, mmap refused the job's
  /// mapping, no worker could be forked, or ForceForkFree.
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
  /// Work-ring capacity floor, entries. A job needing more than remains
  /// triggers a recycle; a single job needing more than this gets a
  /// ring sized to it at (re)map time.
  uint32_t RingEntries = 4096;
  /// Spec-arena capacity floor, bytes (same growth rule).
  uint64_t SpecArenaBytes = 64 << 10;
  /// Job-table capacity between recycles.
  uint32_t MaxJobs = 256;
  /// Per-worker result-arena capacity, bytes. Frames larger than the
  /// arena still flow (the producer streams them in ring-sized pieces);
  /// a smaller arena only costs wakeups.
  uint64_t ArenaBytes = 256 << 10;
  /// Worker rlimits; 0 leaves a limit unset. RlimitAsBytes is HEADROOM:
  /// a worker starts with its host's whole address space, so its
  /// RLIMIT_AS is the host's size at fork() plus this many bytes. It
  /// turns a runaway allocation into a clean exit(inject::OomExitCode),
  /// and is skipped when cgroup memory accounting is active (the cgroup
  /// bounds real memory instead, with RlimitAsBytes as memory.max).
  /// RLIMIT_CPU (seconds) fires SIGXCPU, classified Rlimit. RLIMIT_STACK
  /// (bytes) bounds only the worker's main thread; fiber stacks are heap
  /// allocations.
  uint64_t RlimitAsBytes = 256ull << 20;
  uint64_t RlimitCpuSeconds = 0;
  uint64_t RlimitStackBytes = 0;
  /// Stall deadline, ms: a worker that owns a slot and delivers nothing
  /// for this long is SIGKILLed (FaultClass::Watchdog). 0 disables.
  uint64_t WorkerStallMillis = 30'000;
  /// Quarantine a slot after this many worker deaths, even with attempt
  /// budget left. 0 (default) leaves containment purely to MaxAttempts,
  /// which is what keeps pooled quarantine decisions bit-identical to
  /// the other executors; set K < MaxAttempts only when faster poison
  /// containment is worth the documented divergence.
  uint32_t PoisonWorkerDeaths = 0;
  /// Respawn backoff: the first respawn of a death streak is immediate
  /// (a transient crash should not slow the sweep), then the Nth
  /// consecutive respawn (no delivered record in between) waits
  /// Base << (N-2) microseconds, capped at Max. Base 0 disables the
  /// wait entirely.
  uint64_t RespawnBackoffMicros = 1'000;
  uint64_t RespawnBackoffMaxMicros = 500'000;
  /// Sandbox hardening opt-ins (sweep/Sandbox.h). Defaults off: the
  /// rlimit-only sandbox is the behavior-compatible baseline.
  bool EnableSeccomp = false;
  bool EnableLandlock = false;
  /// With seccomp on, deny open/openat/openat2/creat outright instead
  /// of just write-mode opens. Sound here by construction — workers
  /// inherit every fd pre-opened (see file comment) — so it defaults
  /// on; it is a no-op unless EnableSeccomp is set and takes.
  bool DenyFileOpens = true;
  /// cgroup-v2 memory accounting opt-in (sweep/Cgroup.h). Silently
  /// falls back to RLIMIT_AS + exit-97 when the host says no.
  bool UseCgroupMemory = false;
  /// Degradation forcing, for tests and hosts that know better:
  bool ForceForkFree = false; ///< skip straight to in-process resilient
  bool ForceNoFutex = false;  ///< pool with sleep-poll signalling
};

/// One job handed to PoolHost::run. Spec bytes cross the fork boundary
/// (via the spec arena); everything else is parent-side machinery and
/// never does.
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
  uint64_t Recycles = 0;    ///< ring/arena/job-table exhaustion resets
  uint64_t CancelTeardowns = 0; ///< cancelled runs that reset the pool
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

  /// Runs one job to completion (or cancellation) on the pool,
  /// degrading exactly as pooled() does when fork/shm are unavailable.
  PoolResult run(const PoolRunRequest &Req);

  /// Retires the workers and unmaps the shared state. Idempotent;
  /// run() after shutdown() starts a fresh pool.
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
  /// count from Base.Threads) and sets Resolve, RingEntries,
  /// SpecArenaBytes and MaxJobs itself, sizing the mapping to the one
  /// job; every other field applies as set.
  PoolHostOptions Host;
};

/// True when this build/platform can run a real pool (fork + shared
/// memory). False still leaves pooled() callable — it degrades.
bool pooledAvailable();

/// Runs one sweep on a single-use pool: constructs a PoolHost whose
/// resolver returns Opts.Base (captured BEFORE the fork, so the body
/// crosses legally), runs, tears down. See file comment.
PoolResult pooled(const PoolOptions &Opts);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_POOL_H
