//===- inject/Fault.cpp - Deterministic seeded fault injection ------------===//

#include "inject/Fault.h"

#include "rt/Channel.h"
#include "support/Rng.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>

#include <unistd.h>

using namespace grs;
using namespace grs::inject;

const char *inject::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::GoPanic:
    return "go_panic";
  case FaultKind::ForeignException:
    return "foreign_exception";
  case FaultKind::SchedulerStall:
    return "scheduler_stall";
  case FaultKind::CpuSpin:
    return "cpu_spin";
  case FaultKind::LatencySpike:
    return "latency_spike";
  case FaultKind::HeapExhaustion:
    return "heap_exhaustion";
  case FaultKind::WildWrite:
    return "wild_write";
  case FaultKind::StackOverflow:
    return "stack_overflow";
  case FaultKind::AbortCall:
    return "abort_call";
  }
  return "unknown";
}

bool inject::isInfraFault(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::ForeignException:
  case FaultKind::SchedulerStall:
  case FaultKind::CpuSpin:
  case FaultKind::HeapExhaustion:
  case FaultKind::WildWrite:
  case FaultKind::StackOverflow:
  case FaultKind::AbortCall:
    return true;
  case FaultKind::GoPanic:
  case FaultKind::LatencySpike:
    return false;
  }
  return false;
}

bool inject::isLethalFault(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::HeapExhaustion:
  case FaultKind::WildWrite:
  case FaultKind::StackOverflow:
  case FaultKind::AbortCall:
    return true;
  default:
    return false;
  }
}

namespace {
std::atomic<bool> SandboxFlag{false};
} // namespace

void inject::enterSandbox() { SandboxFlag.store(true); }
bool inject::inSandbox() { return SandboxFlag.load(); }

FaultPlan inject::makeFaultPlan(const FaultPlanOptions &Opts) {
  FaultPlan Plan;
  // One RNG stream, consumed in seed order: the plan is a pure function
  // of the options, independent of how (or whether) the runs execute.
  support::Rng Rng(Opts.PlanSeed);
  std::vector<double> Weights(Opts.Weights, Opts.Weights + NumFaultKinds);
  double Total = 0;
  for (double W : Weights)
    Total += W;
  if (Total <= 0)
    return Plan; // All kinds disabled: an empty (fault-free) plan.
  for (uint64_t I = 0; I < Opts.NumSeeds; ++I) {
    uint64_t Seed = Opts.FirstSeed + I;
    if (!Rng.chance(Opts.FaultRate))
      continue;
    FaultSpec Spec;
    Spec.Kind = static_cast<FaultKind>(Rng.weightedIndex(Weights));
    if (Spec.Kind == FaultKind::GoPanic)
      Spec.Site = static_cast<PanicSite>(Rng.nextBelow(NumPanicSites));
    if (Spec.Kind == FaultKind::LatencySpike)
      Spec.LatencyMicros = Opts.LatencyMicros;
    // The chronic draw consumes RNG only for lethal kinds, which default
    // to weight 0: plans without them are bit-identical to PR-4 plans.
    if (isLethalFault(Spec.Kind))
      Spec.LethalAttempts =
          Rng.chance(Opts.LethalChronicFraction) ? UINT32_MAX : 1;
    Plan.BySeed.emplace(Seed, Spec);
  }
  return Plan;
}

namespace {

/// The GoPanic saboteur body: panic at the planned site.
void panicAtSite(PanicSite Site) {
  rt::Runtime &RT = rt::Runtime::current();
  switch (Site) {
  case PanicSite::Channel: {
    // Send on a channel we already closed (§4.9 channel misuse).
    rt::Chan<rt::Unit> C(1, "inject.chan");
    C.close();
    C.send(rt::Unit{}); // panics: send on closed channel
    break;
  }
  case PanicSite::Lock: {
    // Double release of the closing "lock" on a channel — our runtime's
    // lock-discipline panic (close of closed channel).
    rt::Chan<rt::Unit> C(1, "inject.lock");
    C.close();
    C.close(); // panics: close of closed channel
    break;
  }
  case PanicSite::Spawn:
    // A spawned grandchild panics directly, exercising panic capture
    // off the saboteur's own fiber.
    RT.go("inject.spawned-panicker", [] {
      rt::Runtime::current().panicNow(
          "injected panic in spawned goroutine");
    });
    rt::gosched();
    break;
  }
}

/// Unbounded large-frame recursion. The volatile stores defeat tail-call
/// and frame collapsing; the fiber stack is a dedicated mapping, so the
/// runaway frames exit it into unmapped pages for a clean SIGSEGV.
[[gnu::noinline]] uint64_t burnStack(uint64_t Depth) {
  volatile char Frame[4096];
  Frame[0] = static_cast<char>(Depth);
  Frame[sizeof(Frame) - 1] = Frame[0];
  // Never true at runtime, but the volatile read is opaque to the
  // compiler, so the recursion is not provably (or warnably) infinite.
  if (Frame[0] != static_cast<char>(Depth))
    return Depth;
  return burnStack(Depth + 1) + Frame[sizeof(Frame) - 1];
}

/// Allocates until the allocator fails (RLIMIT_AS in a sandboxed child),
/// then exits with OomExitCode — the deterministic stand-in for a kernel
/// OOM kill. The new_handler keeps bad_alloc from unwinding into the
/// fiber machinery.
[[noreturn]] void exhaustHeap() {
  std::set_new_handler([] { _exit(OomExitCode); });
  for (;;) {
    char *Block = new char[1 << 20];
    std::memset(Block, 0x5A, 1 << 20); // force commit; deliberately leaked
  }
}

/// Detonates a lethal fault for real: the process does not survive this.
[[noreturn]] void detonateLethal(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::HeapExhaustion:
    exhaustHeap();
  case FaultKind::WildWrite: {
    // Page zero is never mapped; the store is a guaranteed SIGSEGV. The
    // volatile address cell keeps the optimizer from proving (and
    // warning about) the dereference target.
    static volatile uintptr_t WildAddress = 8;
    *reinterpret_cast<volatile uint64_t *>(WildAddress) = 0xDEADBEEF;
    break;
  }
  case FaultKind::StackOverflow:
    burnStack(0);
    break;
  case FaultKind::AbortCall:
    std::abort();
  default:
    break;
  }
  // A lethal fault that somehow returned (e.g. the wild store was
  // tolerated) must still kill the process: the parent's classification
  // depends on it.
  std::abort();
}

} // namespace

void inject::detonate(const FaultSpec &Spec) {
  if (Spec.Kind == FaultKind::LatencySpike) {
    // Inline wall-clock stall, zero runtime interaction: the schedule and
    // therefore the verdict are bit-identical to the un-faulted run.
    std::this_thread::sleep_for(std::chrono::microseconds(Spec.LatencyMicros));
    return;
  }
  rt::Runtime &RT = rt::Runtime::current();
  if (isLethalFault(Spec.Kind)) {
    // Attempt-gated: past LethalAttempts the crasher has "recovered" and
    // the run is the unmodified body (bit-identical to fault-free).
    if (RT.options().Attempt > Spec.LethalAttempts)
      return;
    if (!inSandbox()) {
      // No sandbox to die in: downgrade to a foreign C++ exception so the
      // in-process resilient path quarantines the slot instead of the
      // harness dying.
      RT.go("inject.lethal-downgrade", [Kind = Spec.Kind] {
        throw std::runtime_error(
            std::string("injected lethal fault (no sandbox): ") +
            faultKindName(Kind));
      });
      return;
    }
    detonateLethal(Spec.Kind);
  }
  switch (Spec.Kind) {
  case FaultKind::GoPanic:
    RT.go("inject.panicker", [Site = Spec.Site] { panicAtSite(Site); });
    break;
  case FaultKind::ForeignException:
    RT.go("inject.thrower", [] {
      throw std::runtime_error("injected foreign fault");
    });
    break;
  case FaultKind::SchedulerStall:
    // Yields forever: consumes scheduling steps without progress until
    // MaxSteps trips (StepLimitHit) — the classic livelocked test.
    RT.go("inject.staller", [] {
      for (;;)
        rt::gosched();
    });
    break;
  case FaultKind::CpuSpin:
    // Never reaches a scheduling point: StepLimit CANNOT fire; only the
    // hard watchdog (RunOptions::WatchdogMillis) recovers the thread.
    RT.go("inject.spinner", [] {
      volatile uint64_t Spin = 0;
      for (;;)
        Spin = Spin + 1;
    });
    break;
  case FaultKind::LatencySpike:
  case FaultKind::HeapExhaustion:
  case FaultKind::WildWrite:
  case FaultKind::StackOverflow:
  case FaultKind::AbortCall:
    break; // handled above
  }
}

std::function<void()> inject::instrumentBody(std::function<void()> Body,
                                             FaultPlan Plan) {
  return [Body = std::move(Body), Plan = std::move(Plan)] {
    // Pure C++ lookup — no scheduling point — so a miss leaves the run
    // untouched.
    if (const FaultSpec *Spec =
            Plan.faultFor(rt::Runtime::current().options().Seed))
      detonate(*Spec);
    Body();
  };
}

Runner inject::instrumentedRunner(std::function<void()> Body,
                                  FaultPlan Plan) {
  return [Wrapped = instrumentBody(std::move(Body), std::move(Plan))](
             const rt::RunOptions &Opts) {
    rt::Runtime RT(Opts);
    return RT.run(Wrapped);
  };
}

FaultInstruments inject::faultInstruments(obs::Registry *Reg) {
  FaultInstruments Ins;
  if (!Reg)
    return Ins;
  for (size_t K = 0; K < NumFaultKinds; ++K)
    Ins.Injections[K] = Reg->counter(
        "grs_fault_injections_total",
        {{"kind", faultKindName(static_cast<FaultKind>(K))}});
  Ins.Planned = Reg->counter("grs_fault_planned_total");
  return Ins;
}

void inject::countPlan(const FaultInstruments &Ins, const FaultPlan &Plan) {
  obs::inc(Ins.Planned, Plan.size());
}
