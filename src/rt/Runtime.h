//===- rt/Runtime.h - Go-like deterministic concurrency runtime -*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature Go-like concurrency runtime: goroutines as fibers (a
/// register-only switch on x86-64, ucontext elsewhere; DESIGN.md §16)
/// multiplexed onto the calling OS thread by a seed-deterministic
/// scheduler, with every instrumented memory access doubling as a
/// potential preemption point.
///
/// Why a deterministic runtime? The paper's §3 is entirely about the
/// consequences of *non-deterministic* dynamic race detection ("the
/// detected set of races depend on the thread interleavings and can vary
/// across multiple runs"). Replaying that phenomenology under test
/// requires controlling it: here every run is a pure function of
/// (program, seed), so flakiness becomes a seed sweep instead of an OS
/// scheduling accident, while the happens-before detector observes exactly
/// the events a real ThreadSanitizer-instrumented Go program would emit.
///
/// Execution model:
///  * `Runtime::run(Main)` runs \p Main as goroutine 0 and schedules until
///    every goroutine finished, is permanently blocked (leak/deadlock), or
///    the step limit is hit.
///  * `go()` spawns a goroutine; the spawn is a happens-before edge.
///  * Blocking primitives (channels, mutexes, WaitGroups) park the current
///    fiber; state changes wake all parked waiters, which re-check their
///    condition (no lost wakeups by construction).
///  * Virtual time = scheduler steps; timers (used by Context deadlines)
///    fire on step counts and jump forward when the system would otherwise
///    idle.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_RT_RUNTIME_H
#define GRS_RT_RUNTIME_H

#include "race/Detector.h"
#include "support/Rng.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace grs {

namespace obs {
class Counter;
class DetectorObserver;
class Histogram;
class Registry;
class RuntimeInstruments;
class TimelineTrack;
} // namespace obs

namespace rt {

/// A Go panic ("send on closed channel", negative WaitGroup counter, or a
/// user panic()). Thrown inside the offending goroutine and recorded on
/// the RunResult; never escapes Runtime::run().
class GoPanic {
public:
  explicit GoPanic(std::string Message) : Message(std::move(Message)) {}
  const std::string &message() const { return Message; }

private:
  std::string Message;
};

/// Thrown into parked fibers during teardown so their stacks unwind; never
/// visible to user code (do not catch(...) inside goroutines).
class AbortFiber {};

/// Scheduler and detector configuration for one run.
struct RunOptions {
  /// Seed for all scheduling decisions. A run is a pure function of the
  /// program and this seed.
  uint64_t Seed = 1;
  /// Probability of switching goroutines at each instrumented access.
  double PreemptProbability = 0.2;
  /// Which execution attempt of this (program, seed) this run is, 1-based.
  /// Purely informational for the scheduler (it does NOT perturb any
  /// scheduling decision — retries of deterministic runs stay
  /// bit-identical); fault injection reads it so attempt-gated faults
  /// (inject::FaultSpec::LethalAttempts) model transient crashers that
  /// recover on a retry. Executors that re-run a slot (sweep::resilient,
  /// sweep::pooled) set it to the current attempt number.
  uint32_t Attempt = 1;
  /// Guard against livelock: abort after this many scheduling steps.
  uint64_t MaxSteps = 2'000'000;
  /// Per-goroutine fiber stack size in bytes.
  size_t StackBytes = 256 * 1024;
  /// Detector configuration (mode, throttling, chain retention).
  race::DetectorOptions Detector;
  /// When false, memory accesses are not sent to the detector at all --
  /// the "race detection disabled" baseline for the §3.5 overhead
  /// experiment.
  bool DetectRaces = true;
  /// Optional observer invoked on every race report as it is emitted
  /// (with the owning detector, for interner access). Lets callers that
  /// only receive a RunResult — e.g. corpus pattern runners — still
  /// render or fingerprint the reports.
  std::function<void(const race::Detector &, const race::RaceReport &)>
      OnReport;
  /// Optional event-trace tee (borrowed; must outlive the run): installed
  /// on the detector so every instrumentation event of the run is also
  /// streamed to the observer. Attach a trace::TraceSink to capture a
  /// replayable binary trace of the execution (see trace/Trace.h).
  race::EventObserver *Trace = nullptr;
  /// Optional metrics registry (borrowed; must outlive the run). When
  /// set, the runtime instruments its scheduler seams (`grs_rt_*`:
  /// context switches, spawns, blocks, preemptions per seed, channel and
  /// select operations) and installs a metrics-backed EventObserver on
  /// the detector (`grs_race_*`), chaining to Trace when both are set.
  /// When null — the default — every instrumentation site collapses to a
  /// null-handle check (the zero-overhead-when-disabled contract).
  obs::Registry *Metrics = nullptr;
  /// Optional flight-recorder lane (borrowed; must outlive the run).
  /// Executors set it to the worker's obs::Timeline track so run-scoped
  /// spans (e.g. lang:: interpretation) land in the right timeline lane.
  /// Recording never consumes scheduler RNG, so a traced run stays
  /// bit-identical to an untraced one. Null by default — the timeline's
  /// zero-overhead-when-disabled contract.
  obs::TimelineTrack *TimelineTrack = nullptr;
  /// Wall-clock watchdog budget in milliseconds; 0 (the default)
  /// disables the watchdog entirely. When set, the run is bounded in
  /// REAL time, not just virtual steps. The calling thread's own POSIX
  /// timer ticks every 5 ms while the run is armed; it starts no thread.
  /// Once the budget has passed, the next scheduling point ends the run
  /// (the soft path, for bodies that yield but run long). A goroutine
  /// that burns CPU without ever reaching a scheduling point is aborted
  /// once the run's progress has been frozen for the whole budget (the
  /// hard path: a tight spin never consumes steps, so MaxSteps alone
  /// cannot fire), within about one tick of that. Either path surfaces
  /// as RunResult::WatchdogFired instead of a hang. Note the hard path
  /// abandons the offending fiber's stack without unwinding it (its
  /// destructors never run), which is the price of recovering the thread
  /// from non-cooperative code; the fiber's memory itself is still
  /// released with the Runtime. run() throws std::system_error if the
  /// kernel refuses the thread a timer.
  uint64_t WatchdogMillis = 0;
  /// Optional deterministic choice hook: when set, EVERY scheduling
  /// choice point (which runnable goroutine to resume, which ready select
  /// arm to take) calls it with the number of options and uses the
  /// returned index (clamped). \p ContinueIndex is the option that
  /// continues the currently running goroutine (scheduler picks only), or
  /// SIZE_MAX when no such preference exists (select arms, blocked
  /// current goroutine) — exploration uses it for CHESS-style preemption
  /// bounding. When unset, choices come from the seeded RNG. For full
  /// determinism set PreemptProbability to 0 or 1 so no probabilistic
  /// coin flips remain.
  std::function<size_t(size_t NumChoices, size_t ContinueIndex)> ChoiceHook;
};

/// Outcome of one Runtime::run().
struct RunResult {
  /// True if goroutine 0 (main) ran to completion.
  bool MainFinished = false;
  /// True if main was still blocked when no goroutine could run: Go's
  /// "fatal error: all goroutines are asleep - deadlock!".
  bool Deadlocked = false;
  /// True if the step limit aborted the run.
  bool StepLimitHit = false;
  /// Goroutines (names) still parked when the run ended: leaks, such as
  /// Listing 9's Future goroutine blocking forever on `f.ch <- 1`.
  std::vector<std::string> LeakedGoroutines;
  /// Panic messages from any goroutine.
  std::vector<std::string> Panics;
  /// Non-Go exceptions (C++ exceptions from foreign code called inside a
  /// goroutine body) captured at the fiber boundary. Like Panics these
  /// never escape run(): a misbehaving body loses its own run, not the
  /// whole sweep that hosts it.
  std::vector<std::string> ForeignExceptions;
  /// True if the wall-clock watchdog (RunOptions::WatchdogMillis) ended
  /// the run — soft (budget spent, seen at a scheduling point) or hard (a
  /// goroutine never yielded and was abandoned from a timer tick).
  bool WatchdogFired = false;
  /// Which watchdog path fired and on what ("soft: ..." / "hard: ...").
  /// Deliberately free of step counts and timings so the field is
  /// deterministic for deterministic faults.
  std::string WatchdogDetail;
  /// Scheduling steps consumed.
  uint64_t Steps = 0;
  /// Number of race reports emitted by the detector.
  size_t RaceCount = 0;

  bool clean() const {
    return MainFinished && !Deadlocked && !StepLimitHit && !WatchdogFired &&
           LeakedGoroutines.empty() && Panics.empty() &&
           ForeignExceptions.empty() && RaceCount == 0;
  }
};

/// The runtime: one instance per simulated program execution (like one Go
/// test process). Not reentrant and not thread-safe; all goroutines run on
/// the thread that called run().
class Runtime {
public:
  explicit Runtime(RunOptions Opts = RunOptions());
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Runs \p Main as goroutine 0 to completion (see file comment).
  /// May be called once per Runtime.
  RunResult run(std::function<void()> Main);

  /// The runtime currently executing on this thread. Only valid inside
  /// run(); used by the Go-like primitives (Chan, Mutex, Shared, ...).
  static Runtime &current();
  /// \returns nullptr when no runtime is active on this thread.
  static Runtime *currentOrNull();

  //===------------------------------------------------------------------===//
  // Goroutine interface (called from inside goroutines)
  //===------------------------------------------------------------------===//

  /// Spawns a goroutine running \p Body. \p Name appears in leak
  /// diagnostics and as the root frame of the goroutine's call chains.
  race::Tid go(const std::string &Name, std::function<void()> Body);

  /// Id of the running goroutine.
  race::Tid tid() const;

  /// Possibly switches to another runnable goroutine (probability
  /// RunOptions::PreemptProbability). Called implicitly by every
  /// instrumented access.
  void preemptPoint();

  /// Unconditionally reschedules.
  void yieldNow();

  /// Parks the current goroutine until some primitive calls wakeAll()/
  /// unblock() for it. \p Reason appears in leak/deadlock diagnostics.
  void blockCurrent(const char *Reason);

  /// Makes \p T runnable if it is parked (no-op otherwise).
  void unblock(race::Tid T);

  /// Parks the current goroutine until virtual time \p Step.
  void sleepUntilStep(uint64_t Step);

  /// Current virtual time (scheduling steps so far).
  uint64_t stepCount() const { return Steps; }

  /// Raises a Go panic in the current goroutine.
  [[noreturn]] void panicNow(std::string Message);

  /// Resolves one nondeterministic choice among \p NumChoices options
  /// via ChoiceHook when installed, else the seeded RNG. Used by the
  /// scheduler and by select; custom primitives with nondeterministic
  /// choices should use it too so exploration can drive them.
  /// \p ContinueIndex is the non-preempting option (see
  /// RunOptions::ChoiceHook), SIZE_MAX when none.
  size_t pickChoice(size_t NumChoices, size_t ContinueIndex = SIZE_MAX);

  //===------------------------------------------------------------------===//
  // Instrumentation interface
  //===------------------------------------------------------------------===//

  /// Allocates \p Count fresh virtual shadow addresses. Virtual addresses
  /// are never reused, so recycled C++ stack/heap storage cannot alias
  /// stale shadow cells.
  race::Addr allocAddr(size_t Count = 1);

  /// Instrumented read/write of \p A by the current goroutine: preemption
  /// point + detector event (when DetectRaces).
  void read(race::Addr A, const std::string &Name = std::string());
  void write(race::Addr A, const std::string &Name = std::string());

  race::Detector &det() { return *Det; }
  const race::Detector &det() const { return *Det; }

  /// The metrics registry of this run, or nullptr (RunOptions::Metrics).
  obs::Registry *metrics() const { return Opts.Metrics; }

  /// Records one select statement resolving with \p ReadyArms ready arms
  /// (0 for the default arm). Called by rt::Selector.
  void noteSelect(size_t ReadyArms);

  /// Records channel operations (called by rt::Chan alongside the trace
  /// annotations; kept separate so counts exist without an observer).
  void noteChanSend();
  void noteChanRecv();
  void noteChanClose();

  support::Rng &rng() { return SchedRng; }

  const RunOptions &options() const { return Opts; }

  /// True once teardown started; blocking loops re-check and unwind.
  bool aborting() const { return Aborting; }

private:
  struct Goroutine;
  friend struct Goroutine;

  void schedulerLoop();
  void resumeGoroutine(size_t Index);
  void switchToScheduler();
  void fiberEntry();
  void checkAbort();
  static void fiberTrampoline();
  void runScheduler();
  void hardWatchdogAbort();

  RunOptions Opts;
  std::unique_ptr<race::Detector> Det;
  support::Rng SchedRng;
  /// Metrics handles, copied from the registry's cached
  /// obs::RuntimeInstruments bundle so the hot path is a plain increment
  /// and repeated Runtime construction skips re-registration (all null
  /// when RunOptions::Metrics is null).
  obs::Counter *MCtxSwitches = nullptr;
  obs::Counter *MSpawns = nullptr;
  obs::Counter *MBlocks = nullptr;
  obs::Counter *MPreemptions = nullptr;
  obs::Counter *MYields = nullptr;
  obs::Counter *MSteps = nullptr;
  obs::Counter *MSelects = nullptr;
  obs::Counter *MChanSends = nullptr;
  obs::Counter *MChanRecvs = nullptr;
  obs::Counter *MChanCloses = nullptr;
  obs::Histogram *MSelectReady = nullptr;
  /// The registry's handle bundle (null without metrics); also the pool
  /// the detector observer is returned to at destruction.
  obs::RuntimeInstruments *MInstruments = nullptr;
  /// Pooled metrics-backed detector observer, borrowed from MInstruments
  /// for this Runtime's lifetime (see RunOptions::Metrics).
  obs::DetectorObserver *MetricsObserver = nullptr;
  std::vector<std::unique_ptr<Goroutine>> Goroutines;
  size_t CurrentIndex = 0;
  uint64_t Steps = 0;
  race::Addr NextAddr = 0x1000;
  bool Running = false;
  bool Aborting = false;
  RunResult Result;
  /// The scheduler's suspended context while a fiber runs: one pointer
  /// into the scheduler's stack (Runtime.cpp, switchFiber). The watchdog's
  /// state is per OS thread and lives in Runtime.cpp.
  void *SchedSp = nullptr;
};

//===----------------------------------------------------------------------===//
// Free-function sugar (operate on Runtime::current())
//===----------------------------------------------------------------------===//

/// Spawns a goroutine on the current runtime (the `go func(){...}()`
/// statement).
inline race::Tid go(const std::string &Name, std::function<void()> Body) {
  return Runtime::current().go(Name, std::move(Body));
}

/// Voluntary reschedule (runtime.Gosched()).
inline void gosched() { Runtime::current().yieldNow(); }

/// Convenience: builds a RunOptions with the given seed.
inline RunOptions withSeed(uint64_t Seed) {
  RunOptions Opts;
  Opts.Seed = Seed;
  return Opts;
}

/// Re-initializes this runtime's process-global state in a freshly forked
/// child (sweep::pooled's workers call this first): clears any
/// inherited active-runtime thread-locals and hard-watchdog latches,
/// forgets the parent thread's watchdog timer (the child's first armed
/// run creates its own) and unblocks SIGURG, so the child's own
/// watchdog-armed runs behave exactly like a fresh process.
/// Async-signal-safety is not required here — the child is
/// single-threaded right after fork() and has not yet run anything.
void prepareChildAfterFork();

/// Self-calibrated hard-watchdog budget: times a fixed scheduler micro-run
/// once per process and returns 50x that measurement (at least
/// \p FloorMillis), so budgets scale with actual machine speed instead of
/// a static guess that trips the soft path on loaded hosts (the DESIGN.md
/// §9 calibration caveat). Deterministic runs are unaffected — the budget
/// only bounds wall-clock recovery, never scheduling decisions.
uint64_t calibratedWatchdogBudgetMillis(uint64_t FloorMillis = 200);

} // namespace rt
} // namespace grs

#endif // GRS_RT_RUNTIME_H
