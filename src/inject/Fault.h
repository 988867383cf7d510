//===- inject/Fault.h - Deterministic seeded fault injection ----*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Manufactured misbehaviour for the fleet layers. The paper's deployment
/// pipeline (§3) survived six months of daily sweeps over 100K+ real unit
/// tests because hanging, crashing and flaky tests were contained per-run;
/// our sweep engines assumed every body is well-behaved. This layer
/// manufactures exactly the faults that assumption hides — Go panics at
/// channel/lock/spawn sites, foreign C++ exceptions, scheduler stalls,
/// non-yielding CPU spins, wall-clock latency spikes — deterministically
/// from a seed, so the resilience machinery (rt watchdog, fiber-boundary
/// exception capture, sweep::resilient quarantine/retry/checkpointing) can
/// be tested against reproducible chaos.
///
/// The unit of injection is the FaultPlan: a seeded, precomputed map from
/// run seed to FaultSpec over a sweep's seed range. Faulted runs get a
/// saboteur goroutine (or an inline latency sleep) prepended to the body;
/// non-faulted runs execute the original body with ZERO added runtime
/// interaction — the plan lookup is plain C++ before the first scheduling
/// point — so every non-faulted run is bit-identical to the fault-free
/// sweep. That invariant is what the chaos tests pin.
///
/// Fault taxonomy and how each surfaces in rt::RunResult:
///
///   GoPanic          saboteur panics at a channel / lock / spawn site
///                    -> Panics (a normal verdict: kept by the sweep)
///   ForeignException saboteur throws a C++ std::runtime_error
///                    -> ForeignExceptions (infra fault: quarantined)
///   SchedulerStall   saboteur yields forever, starving completion
///                    -> StepLimitHit (infra fault: quarantined)
///   CpuSpin          saboteur spins without ever yielding; only the
///                    hard watchdog can recover the thread
///                    -> WatchdogFired (infra fault: quarantined)
///   LatencySpike     wall-clock sleep before the body, no runtime calls
///                    -> result bit-identical (a benign slow run)
///
/// PROCESS-LETHAL kinds (PR 5): faults no in-process machinery can
/// contain — the paper's fleet survived them only because each test ran
/// in its own process, and so does our sweep::pooled executor. Inside
/// a sandboxed worker (inject::enterSandbox) they kill the process and
/// the parent classifies the death; outside a sandbox they DOWNGRADE to
/// a foreign C++ exception so the PR-4 in-process path quarantines the
/// slot instead of the harness dying:
///
///   HeapExhaustion   allocate until RLIMIT_AS fails the allocator
///                    -> child _exit(OomExitCode) (FaultClass::OomKill)
///   WildWrite        store through a wild pointer -> SIGSEGV
///   StackOverflow    unbounded recursion off the fiber stack -> SIGSEGV
///   AbortCall        std::abort() -> SIGABRT
///
/// Lethal faults model real-world crash flakiness: FaultSpec::
/// LethalAttempts bounds the attempts (RunOptions::Attempt) on which the
/// fault detonates — a TRANSIENT crasher recovers on the next attempt in
/// a fresh child, a CHRONIC one (UINT32_MAX) dies every time and is
/// quarantined. Detonation stays a pure function of (seed, attempt).
///
//===----------------------------------------------------------------------===//

#ifndef GRS_INJECT_FAULT_H
#define GRS_INJECT_FAULT_H

#include "obs/Metrics.h"
#include "rt/Runtime.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace grs {
namespace inject {

/// What a faulted run suffers. See file comment for how each kind
/// surfaces in rt::RunResult.
enum class FaultKind : uint8_t {
  GoPanic = 0,
  ForeignException,
  SchedulerStall,
  CpuSpin,
  LatencySpike,
  // Process-lethal kinds: only sweep::pooled can contain these (see
  // file comment; outside a sandbox they downgrade to ForeignException).
  HeapExhaustion,
  WildWrite,
  StackOverflow,
  AbortCall,
};

inline constexpr size_t NumFaultKinds = 9;

/// Stable lower-case name of \p Kind (instrument label / diagnostics).
const char *faultKindName(FaultKind Kind);

/// Which site an injected GoPanic is raised from — the paper's recurring
/// panic sources (§4.9 channel misuse, lock discipline, spawned helpers).
enum class PanicSite : uint8_t {
  Channel = 0, ///< Send on a channel the saboteur already closed.
  Lock,        ///< Double close — the lock-discipline analogue our
               ///< runtime panics on (close of closed channel).
  Spawn,       ///< A spawned grandchild goroutine panics directly.
};

inline constexpr size_t NumPanicSites = 3;

/// One planned fault.
struct FaultSpec {
  FaultKind Kind = FaultKind::GoPanic;
  /// GoPanic only: which site panics.
  PanicSite Site = PanicSite::Channel;
  /// LatencySpike only: how long the inline wall-clock sleep lasts.
  uint64_t LatencyMicros = 0;
  /// Lethal kinds only: the fault detonates while RunOptions::Attempt <=
  /// LethalAttempts. 1 models a transient crasher (recovers on the first
  /// respawn), UINT32_MAX a chronic one (dies every attempt). Ignored by
  /// non-lethal kinds, which detonate on every attempt as before.
  uint32_t LethalAttempts = 1;

  bool operator==(const FaultSpec &) const = default;
};

/// True for kinds that invalidate the run's verdict (the run's outcome
/// reflects infrastructure misbehaviour, not the program under test):
/// ForeignException, SchedulerStall, CpuSpin, and every lethal kind.
/// GoPanic is a legitimate program verdict and LatencySpike does not
/// change the result at all.
bool isInfraFault(FaultKind Kind);

/// True for kinds that kill the whole process when sandboxed:
/// HeapExhaustion, WildWrite, StackOverflow, AbortCall.
bool isLethalFault(FaultKind Kind);

//===----------------------------------------------------------------------===//
// Sandbox gating
//
// Lethal faults must only actually kill a process whose death something
// contains. A sweep::pooled worker calls enterSandbox() before running
// its slots; detonate() consults inSandbox() and, outside one,
// downgrades lethal kinds to a foreign C++ exception the PR-4 in-process
// machinery quarantines. The flag is process-global and one-way (a child
// never leaves its sandbox; the fork-free parent never enters one).
//===----------------------------------------------------------------------===//

/// Marks this process as a sandboxed sweep child: lethal faults are now
/// allowed to kill it.
void enterSandbox();
bool inSandbox();

/// Process exit code a sandboxed child uses for allocation failure under
/// RLIMIT_AS (the deterministic stand-in for a kernel OOM kill, which
/// cannot be provoked safely). Parents map it to FaultClass::OomKill.
inline constexpr int OomExitCode = 97;

/// Recipe for a FaultPlan over a sweep's seed range.
struct FaultPlanOptions {
  /// Seed of the plan's own RNG stream (which run seeds are faulted and
  /// with what). Independent of the run seeds themselves.
  uint64_t PlanSeed = 1;
  /// The sweep seed range the plan covers, pipeline::SweepOptions-style.
  uint64_t FirstSeed = 1;
  uint64_t NumSeeds = 0;
  /// Probability that a given run seed is faulted.
  double FaultRate = 0.05;
  /// Relative weights of the fault kinds (0 disables a kind). Defaults
  /// exercise the PR-4 in-process kinds equally and DISABLE the lethal
  /// kinds (weights and plan draws are unchanged for pre-isolation
  /// callers); enable lethal kinds explicitly for sandboxed sweeps.
  double Weights[NumFaultKinds] = {1, 1, 1, 1, 1, 0, 0, 0, 0};
  /// Duration of LatencySpike sleeps.
  uint64_t LatencyMicros = 200;
  /// Fraction of lethal faults that are CHRONIC (LethalAttempts =
  /// UINT32_MAX, die on every attempt); the rest are transient
  /// (LethalAttempts = 1). The chronic draw consumes RNG only for lethal
  /// kinds, so plans without them are bit-identical to PR-4 plans.
  double LethalChronicFraction = 0.1;
};

/// A precomputed, immutable schedule of faults for one sweep.
struct FaultPlan {
  std::map<uint64_t, FaultSpec> BySeed;

  /// \returns the fault planned for run seed \p Seed, or nullptr.
  const FaultSpec *faultFor(uint64_t Seed) const {
    auto It = BySeed.find(Seed);
    return It == BySeed.end() ? nullptr : &It->second;
  }
  bool faulted(uint64_t Seed) const { return BySeed.count(Seed) != 0; }
  /// Faulted and of a kind that invalidates the verdict.
  bool infraFaulted(uint64_t Seed) const {
    const FaultSpec *S = faultFor(Seed);
    return S && isInfraFault(S->Kind);
  }
  size_t size() const { return BySeed.size(); }
};

/// Draws a FaultPlan from \p Opts. Deterministic: same options, same
/// plan, regardless of how the sweep later executes.
FaultPlan makeFaultPlan(const FaultPlanOptions &Opts);

/// Detonates \p Spec inside the current run. Must be called from inside a
/// goroutine (uses rt::Runtime::current()). GoPanic / ForeignException /
/// SchedulerStall / CpuSpin spawn a "saboteur" goroutine so the host body
/// still runs; LatencySpike sleeps inline without touching the runtime.
/// Lethal kinds consult RunOptions::Attempt (no detonation past
/// LethalAttempts — the run is then the unmodified body) and inSandbox()
/// (outside a sandbox they throw instead of killing the process).
void detonate(const FaultSpec &Spec);

/// Wraps \p Body so each run consults \p Plan by its own seed
/// (rt::Runtime::current().options().Seed) and detonates the planned
/// fault, if any, before the body. Non-faulted seeds add zero runtime
/// interaction. The plan is captured by value (shared with all copies of
/// the returned body), so the wrapper outlives the caller's plan.
std::function<void()> instrumentBody(std::function<void()> Body,
                                     FaultPlan Plan);

/// A program under sweep, shaped like sweep::Runner / corpus
/// Pattern::RunRacy (inject sits below sweep, so the alias is local).
using Runner = std::function<rt::RunResult(const rt::RunOptions &)>;

/// Hosts instrumentBody(Body, Plan) in a fresh Runtime per call — the
/// Runner-shaped form the sweep engines consume.
Runner instrumentedRunner(std::function<void()> Body, FaultPlan Plan);

/// Counters describing fault-injection activity. All pointers may be
/// null (disabled registry); use the null-safe obs helpers.
struct FaultInstruments {
  /// grs_fault_injections_total{kind=...}: detonations by kind.
  obs::Counter *Injections[NumFaultKinds] = {};
  /// grs_fault_planned_total: faults in the plans counted so far.
  obs::Counter *Planned = nullptr;
};

/// Registers (or looks up) the `grs_fault_*` instruments on \p Reg.
/// Returns all-null handles when \p Reg is null or disabled. NOT
/// thread-safe (obs::Registry is single-threaded); call from the
/// serial planning/merge side only.
FaultInstruments faultInstruments(obs::Registry *Reg);

/// Convenience: counts \p Plan into \p Ins (Planned and per-kind
/// Injections are NOT the same thing; this bumps Planned only).
void countPlan(const FaultInstruments &Ins, const FaultPlan &Plan);

} // namespace inject
} // namespace grs

#endif // GRS_INJECT_FAULT_H
