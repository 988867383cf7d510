//===- rt/Runtime.cpp - Go-like deterministic concurrency runtime ---------===//

#include "rt/Runtime.h"

#include "obs/DetectorMetrics.h"
#include "obs/Metrics.h"
#include "obs/RuntimeMetrics.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <csetjmp>
#include <csignal>
#include <ctime>
#include <exception>
#include <mutex>
#include <pthread.h>
#include <system_error>
#include <unistd.h>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

using namespace grs;
using namespace grs::rt;

//===----------------------------------------------------------------------===//
// Goroutine bookkeeping
//===----------------------------------------------------------------------===//

namespace {
enum class GState : uint8_t {
  NeverStarted,
  Runnable,
  Running,
  Blocked,
  Sleeping,
  Finished,
};
} // namespace

struct Runtime::Goroutine {
  race::Tid Id = 0;
  std::string Name;
  GState State = GState::NeverStarted;
  std::function<void()> Body;
  std::unique_ptr<char[]> Stack;
  /// The suspended context (see switchFiber); set when first resumed.
  void *Sp = nullptr;
  uint64_t WakeStep = 0;
  const char *BlockReason = "";
};

/// The runtime active on this thread, if any.
static thread_local Runtime *ActiveRuntime = nullptr;

//===----------------------------------------------------------------------===//
// Watchdog machinery
//
// A goroutine that never reaches a scheduling point (a tight CPU spin, or
// foreign code that blocks forever) cannot be recovered cooperatively:
// the scheduler and the fiber share one OS thread, and control only comes
// back at yield points the fiber never executes. So every OS thread that
// runs an armed run owns one POSIX timer that sends SIGURG to that thread
// alone, and the timer ticks while the run is armed. Each tick's handler
// reads the clock and the run's progress stamp and decides both paths:
// once the budget has passed it raises the flag the scheduler reads at
// every step (the soft path), and once the stamp has been frozen for the
// whole budget it siglongjmps from the stuck fiber's stack back into
// Runtime::runScheduler(), abandoning the fiber mid-frame (the hard path).
// Everything the handler touches is thread-local to the thread the signal
// targets, and the jump is latched between two points on that thread, so
// a tick that lands after disarm is a harmless no-op.
//===----------------------------------------------------------------------===//

namespace {

/// How often an armed run's timer fires. A run shorter than one tick
/// takes no signal at all.
constexpr long WatchdogTickNs = 5'000'000;

/// Nonzero only while this thread's run accepts a hard abort. Checked and
/// cleared by the handler so the jump fires at most once per arm.
thread_local volatile sig_atomic_t HardAbortArmed = 0;
/// Raised by the handler once the budget has passed: the soft path.
thread_local volatile sig_atomic_t BudgetSpent = 0;
/// Bumped at every scheduling step, so a stamp unchanged for the whole
/// budget means the current goroutine never reached a scheduling point.
thread_local std::atomic<uint64_t> Progress{0};
/// The armed run's budget and arm time, and the stamp the handler last
/// saw with when it saw it change (monotonic nanoseconds).
thread_local uint64_t BudgetNs = 0, ArmNs = 0, SeenStamp = 0, SeenNs = 0;
/// Recovery point for the hard path.
thread_local sigjmp_buf WatchdogJmp;

/// This thread's timer. The thread's first armed run creates it, and it
/// is deleted when the thread exits.
struct ThreadTimer {
  timer_t Id{};
  bool Live = false;
  ThreadTimer() = default;
  ThreadTimer(const ThreadTimer &) = delete;
  ThreadTimer &operator=(const ThreadTimer &) = delete;
  ~ThreadTimer() {
    if (Live)
      timer_delete(Id);
  }
};
thread_local ThreadTimer WatchdogTimer;

uint64_t monotonicNs() {
  struct timespec T = {};
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000 +
         static_cast<uint64_t>(T.tv_nsec);
}

void watchdogTick(int /*Signo*/) {
  if (!HardAbortArmed)
    return;
  int SavedErrno = errno;
  uint64_t Now = monotonicNs();
  uint64_t Stamp = Progress.load(std::memory_order_relaxed);
  if (Stamp != SeenStamp) {
    SeenStamp = Stamp;
    SeenNs = Now;
  } else if (Now - SeenNs >= BudgetNs) {
    HardAbortArmed = 0;
    siglongjmp(WatchdogJmp, 1);
  }
  if (Now - ArmNs >= BudgetNs)
    BudgetSpent = 1;
  errno = SavedErrno;
}

/// Creates this thread's timer unless it has one, installing the
/// process-wide SIGURG handler first. SIGURG matches Go's own
/// async-preemption choice: ignored by default and rarely used elsewhere.
/// \throws std::system_error when the kernel refuses a timer.
void ensureThreadTimer() {
  if (WatchdogTimer.Live)
    return;
  static std::once_flag Once;
  std::call_once(Once, [] {
    struct sigaction SA = {};
    SA.sa_handler = watchdogTick;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = SA_RESTART;
    sigaction(SIGURG, &SA, nullptr);
  });
  struct sigevent SE = {};
  SE.sigev_notify = SIGEV_THREAD_ID;
  SE.sigev_signo = SIGURG;
  SE._sigev_un._tid = gettid();
  if (timer_create(CLOCK_MONOTONIC, &SE, &WatchdogTimer.Id) != 0)
    throw std::system_error(errno, std::generic_category(),
                            "watchdog timer_create");
  WatchdogTimer.Live = true;
}

/// Starts this thread's timer ticking every \p IntervalNs, or stops it
/// at 0.
void setWatchdogTick(long IntervalNs) {
  struct itimerspec Spec = {{0, IntervalNs}, {0, IntervalNs}};
  timer_settime(WatchdogTimer.Id, 0, &Spec, nullptr);
}

} // namespace

Runtime::Runtime(RunOptions Opts)
    : Opts(std::move(Opts)),
      Det(std::make_unique<race::Detector>(this->Opts.Detector)),
      SchedRng(this->Opts.Seed) {
  if (this->Opts.OnReport)
    Det->setReportSink([this](const race::RaceReport &Report) {
      this->Opts.OnReport(*Det, Report);
    });
  // A disabled registry takes the same path as no registry at all: no
  // handles, no observer — the zero-overhead-when-disabled contract.
  obs::Registry *Reg = this->Opts.Metrics;
  if (Reg && !Reg->enabled())
    Reg = nullptr;
  if (Reg) {
    // All handles come from the registry's cached bundle: one
    // registration pass per registry instead of per Runtime (the
    // amortization measured in EXPERIMENTS.md).
    MInstruments = Reg->runtimeInstruments();
    MCtxSwitches = MInstruments->CtxSwitches;
    MSpawns = MInstruments->Spawns;
    MBlocks = MInstruments->Blocks;
    MPreemptions = MInstruments->preemptionsForSeed(this->Opts.Seed);
    MYields = MInstruments->Yields;
    MSteps = MInstruments->Steps;
    MSelects = MInstruments->Selects;
    MChanSends = MInstruments->ChanSends;
    MChanRecvs = MInstruments->ChanRecvs;
    MChanCloses = MInstruments->ChanCloses;
    MSelectReady = MInstruments->SelectReady;
    // Detector metrics ride the event-observer seam so the detector core
    // stays untouched; a trace sink chains behind it unchanged. The
    // observer is pooled on the bundle and rebound to this detector.
    MetricsObserver =
        MInstruments->acquireObserver(Det.get(), this->Opts.Trace);
    Det->setEventObserver(MetricsObserver);
  } else if (this->Opts.Trace) {
    Det->setEventObserver(this->Opts.Trace);
  }
}

Runtime::~Runtime() {
  if (MetricsObserver)
    MInstruments->releaseObserver(MetricsObserver);
}

Runtime &Runtime::current() {
  assert(ActiveRuntime && "no runtime active on this thread");
  return *ActiveRuntime;
}

Runtime *Runtime::currentOrNull() { return ActiveRuntime; }

//===----------------------------------------------------------------------===//
// Fiber switching
//
// A suspended context is one pointer into its own stack. On x86-64 it is
// the stack pointer saved by FiberSwitch.S, whose switch keeps only what
// the ABI makes callee-saved (rbp, rbx, r12-r15, MXCSR, x87 control word)
// and makes no syscall. Elsewhere it points at a ucontext_t kept on that
// same stack, and glibc's swapcontext (a sigprocmask per call) does the
// work. Either way a fresh fiber inherits its creator's floating-point
// control state, and each fiber keeps its own from then on.
//===----------------------------------------------------------------------===//

#if defined(__x86_64__)
extern "C" void *grs_fiber_make(void *StackTop, void (*Entry)());
extern "C" void grs_fiber_switch(void **SaveSp, void *LoadSp);
#endif

namespace {

/// A fiber stack, deliberately not zeroed: a fiber writes its stack before
/// reading it, and zeroing StackBytes was most of what a spawn cost
/// (DESIGN.md §16).
std::unique_ptr<char[]> newStack(size_t Bytes) {
  return std::unique_ptr<char[]>(new char[Bytes]);
}

/// The suspended context of a fresh fiber on [Stack, Stack + Bytes) whose
/// first resumption calls \p Entry, which must never return.
void *makeFiber(char *Stack, size_t Bytes, void (*Entry)()) {
#if defined(__x86_64__)
  return grs_fiber_make(Stack + Bytes, Entry);
#else
  auto Top = reinterpret_cast<uintptr_t>(Stack + Bytes);
  auto *Ctx = reinterpret_cast<ucontext_t *>(
      (Top - sizeof(ucontext_t)) & ~uintptr_t(alignof(ucontext_t) - 1));
  getcontext(Ctx);
  Ctx->uc_stack.ss_sp = Stack;
  Ctx->uc_stack.ss_size = reinterpret_cast<char *>(Ctx) - Stack;
  Ctx->uc_link = nullptr;
  makecontext(Ctx, Entry, 0);
  return Ctx;
#endif
}

/// Suspends the running context into \p Save and resumes \p Load.
void switchFiber(void **Save, void *Load) {
#if defined(__x86_64__)
  grs_fiber_switch(Save, Load);
#else
  ucontext_t Here;
  *Save = &Here;
  swapcontext(&Here, static_cast<ucontext_t *>(Load));
#endif
}

} // namespace

//===----------------------------------------------------------------------===//
// Fiber entry
//===----------------------------------------------------------------------===//

void Runtime::fiberTrampoline() { ActiveRuntime->fiberEntry(); }

void Runtime::fiberEntry() {
  Goroutine &G = *Goroutines[CurrentIndex];
  Det->pushFrame(G.Id, Det->makeFrame(G.Name, "goroutine", 0));
  try {
    G.Body();
  } catch (GoPanic &P) {
    Result.Panics.push_back(G.Name + ": panic: " + P.message());
  } catch (AbortFiber &) {
    // Teardown unwinding; nothing to record.
  } catch (const std::exception &E) {
    // A C++ exception from foreign code inside the body. Captured here —
    // at the fiber boundary — so it degrades this one run instead of
    // unwinding through the scheduler and killing the whole sweep.
    Result.ForeignExceptions.push_back(G.Name + ": foreign exception: " +
                                       E.what());
  } catch (...) {
    Result.ForeignExceptions.push_back(G.Name +
                                       ": foreign exception: <non-std>");
  }
  // Release captured state eagerly; the Goroutine record outlives the run.
  G.Body = nullptr;
  Det->popFrame(G.Id);
  Det->finish(G.Id);
  G.State = GState::Finished;
  switchFiber(&G.Sp, SchedSp);
  assert(false && "resumed a finished goroutine");
}

//===----------------------------------------------------------------------===//
// Scheduling
//===----------------------------------------------------------------------===//

RunResult Runtime::run(std::function<void()> Main) {
  assert(!Running && "Runtime::run() is not reentrant");
  assert(!ActiveRuntime && "another Runtime is active on this thread");
  // Before any state changes: a thread the kernel refuses a timer throws
  // from a run that never started.
  if (Opts.WatchdogMillis)
    ensureThreadTimer();
  Running = true;
  ActiveRuntime = this;

  // Goroutine 0: main.
  auto MainG = std::make_unique<Goroutine>();
  MainG->Id = Det->newRootGoroutine();
  MainG->Name = "main";
  MainG->Body = std::move(Main);
  MainG->Stack = newStack(Opts.StackBytes);
  Goroutines.push_back(std::move(MainG));

  runScheduler();
  bool MainDone =
      !Goroutines.empty() && Goroutines[0]->State == GState::Finished;

  // Teardown: unwind every fiber that still has a live stack so captured
  // objects are destroyed. Parked fibers throw AbortFiber at resumption.
  Aborting = true;
  for (int Pass = 0; Pass < 16; ++Pass) {
    bool AllDone = true;
    for (size_t I = 0; I < Goroutines.size(); ++I) {
      Goroutine &G = *Goroutines[I];
      if (G.State == GState::Blocked || G.State == GState::Sleeping ||
          G.State == GState::Runnable) {
        // Only channel/mutex-parked goroutines count as leaks; sleepers
        // are pending timers and runnables are step-limit casualties.
        bool Parked = G.State == GState::Blocked;
        if (Parked && Pass == 0)
          Result.LeakedGoroutines.push_back(G.Name + " [" + G.BlockReason +
                                            "]");
        resumeGoroutine(I);
        AllDone &= G.State == GState::Finished;
      } else if (G.State == GState::NeverStarted) {
        G.Body = nullptr;
        G.State = GState::Finished;
      }
    }
    if (AllDone)
      break;
  }

  Result.MainFinished = MainDone;
  Result.Steps = Steps;
  Result.RaceCount = Det->reports().size();
  obs::inc(MSteps, Steps);
  if (MetricsObserver)
    MetricsObserver->sync();
  ActiveRuntime = nullptr;
  return Result;
}

void Runtime::runScheduler() {
  if (Opts.WatchdogMillis == 0) {
    schedulerLoop();
    return;
  }

  BudgetNs = std::min<uint64_t>(Opts.WatchdogMillis, UINT64_MAX / 1'000'000) *
             1'000'000;
  ArmNs = SeenNs = monotonicNs();
  SeenStamp = 0;
  Progress.store(0, std::memory_order_relaxed);
  // Disarm drops the latch first, so a tick already pending when the
  // timer stops is a no-op.
  struct Disarm {
    Disarm() = default;
    Disarm(const Disarm &) = delete;
    ~Disarm() {
      HardAbortArmed = 0;
      setWatchdogTick(0);
      BudgetSpent = 0;
    }
  } D;
  if (sigsetjmp(WatchdogJmp, /*savemask=*/1) == 0) {
    // Armed only once the jump has somewhere to land.
    HardAbortArmed = 1;
    setWatchdogTick(WatchdogTickNs);
    schedulerLoop();
  } else {
    hardWatchdogAbort();
  }
}

void Runtime::hardWatchdogAbort() {
  // We longjmp'd here from the signal handler: some goroutine held the
  // thread past the whole budget without reaching a scheduling point.
  // Its fiber stack is abandoned exactly as the signal left it — never
  // resumed, never unwound — and the goroutine is marked finished so
  // teardown skips it. Other goroutines still unwind normally.
  Goroutine &G = *Goroutines[CurrentIndex];
  G.State = GState::Finished;
  Result.WatchdogFired = true;
  Result.WatchdogDetail =
      "hard: goroutine '" + G.Name +
      "' exceeded the wall-clock budget without reaching a scheduling point";
}

void Runtime::schedulerLoop() {
  std::vector<size_t> Runnable;
  for (;;) {
    if (Steps >= Opts.MaxSteps) {
      Result.StepLimitHit = true;
      return;
    }
    Progress.store(Steps + 1, std::memory_order_relaxed);
    if (BudgetSpent) {
      // Soft path: the system is still scheduling, just past its
      // wall-clock budget (a watchdog tick raised the flag).
      Result.WatchdogFired = true;
      Result.WatchdogDetail = "soft: wall-clock budget exhausted while "
                              "goroutines were still being scheduled";
      return;
    }

    // Wake sleepers whose deadline arrived.
    uint64_t NearestWake = ~0ULL;
    bool HaveSleeper = false;
    for (auto &GPtr : Goroutines) {
      if (GPtr->State != GState::Sleeping)
        continue;
      if (GPtr->WakeStep <= Steps) {
        GPtr->State = GState::Runnable;
      } else {
        HaveSleeper = true;
        NearestWake = std::min(NearestWake, GPtr->WakeStep);
      }
    }

    Runnable.clear();
    for (size_t I = 0; I < Goroutines.size(); ++I) {
      GState S = Goroutines[I]->State;
      if (S == GState::Runnable || S == GState::NeverStarted)
        Runnable.push_back(I);
    }

    if (Runnable.empty()) {
      if (HaveSleeper) {
        // Idle system: jump virtual time to the next timer.
        Steps = NearestWake;
        continue;
      }
      // Nothing can ever run again. Main still parked => Go's deadlock.
      if (!Goroutines.empty() && Goroutines[0]->State == GState::Blocked)
        Result.Deadlocked = true;
      return;
    }

    // The option that would continue the goroutine that just yielded
    // voluntarily (if it is still runnable): picking anything else is a
    // preemption in the CHESS sense.
    size_t ContinueIndex = SIZE_MAX;
    for (size_t I = 0; I < Runnable.size(); ++I)
      if (Runnable[I] == CurrentIndex &&
          Goroutines[CurrentIndex]->State == GState::Runnable)
        ContinueIndex = I;
    size_t Pick = Runnable[pickChoice(Runnable.size(), ContinueIndex)];
    ++Steps;
    resumeGoroutine(Pick);
  }
}

void Runtime::resumeGoroutine(size_t Index) {
  Goroutine &G = *Goroutines[Index];
  obs::inc(MCtxSwitches);
  CurrentIndex = Index;
  if (G.State == GState::NeverStarted)
    G.Sp = makeFiber(G.Stack.get(), Opts.StackBytes,
                     &Runtime::fiberTrampoline);
  G.State = GState::Running;
  switchFiber(&SchedSp, G.Sp);
}

void Runtime::switchToScheduler() {
  Goroutine &G = *Goroutines[CurrentIndex];
  switchFiber(&G.Sp, SchedSp);
  // Resumed by the scheduler.
  checkAbort();
}

void Runtime::checkAbort() {
  // Never throw while another exception is unwinding this fiber (e.g. a
  // deferred action running a runtime call during teardown): that would
  // std::terminate(). Such fibers instead observe aborting() in their
  // blocking loops.
  if (Aborting && std::uncaught_exceptions() == 0)
    throw AbortFiber();
}

//===----------------------------------------------------------------------===//
// Goroutine interface
//===----------------------------------------------------------------------===//

race::Tid Runtime::go(const std::string &Name, std::function<void()> Body) {
  assert(Running && "go() outside of Runtime::run()");
  auto G = std::make_unique<Goroutine>();
  G->Id = Det->fork(tid());
  G->Name = Name;
  G->Body = std::move(Body);
  G->Stack = newStack(Opts.StackBytes);
  race::Tid NewTid = G->Id;
  assert(NewTid == Goroutines.size() && "tid / goroutine index skew");
  Goroutines.push_back(std::move(G));
  obs::inc(MSpawns);
  return NewTid;
}

race::Tid Runtime::tid() const { return Goroutines[CurrentIndex]->Id; }

void Runtime::preemptPoint() {
  checkAbort();
  if (!SchedRng.chance(Opts.PreemptProbability))
    return;
  obs::inc(MPreemptions);
  Goroutines[CurrentIndex]->State = GState::Runnable;
  switchToScheduler();
}

void Runtime::yieldNow() {
  checkAbort();
  obs::inc(MYields);
  Goroutines[CurrentIndex]->State = GState::Runnable;
  switchToScheduler();
}

void Runtime::blockCurrent(const char *Reason) {
  checkAbort();
  obs::inc(MBlocks);
  Goroutine &G = *Goroutines[CurrentIndex];
  G.State = GState::Blocked;
  G.BlockReason = Reason;
  switchToScheduler();
}

void Runtime::noteSelect(size_t ReadyArms) {
  obs::inc(MSelects);
  obs::observe(MSelectReady, static_cast<double>(ReadyArms));
}

void Runtime::noteChanSend() { obs::inc(MChanSends); }
void Runtime::noteChanRecv() { obs::inc(MChanRecvs); }
void Runtime::noteChanClose() { obs::inc(MChanCloses); }

void Runtime::unblock(race::Tid T) {
  assert(T < Goroutines.size() && "unblock() of unknown goroutine");
  Goroutine &G = *Goroutines[T];
  if (G.State == GState::Blocked)
    G.State = GState::Runnable;
}

void Runtime::sleepUntilStep(uint64_t Step) {
  checkAbort();
  Goroutine &G = *Goroutines[CurrentIndex];
  if (Step <= Steps)
    return;
  G.State = GState::Sleeping;
  G.WakeStep = Step;
  switchToScheduler();
}

void Runtime::panicNow(std::string Message) { throw GoPanic(std::move(Message)); }

size_t Runtime::pickChoice(size_t NumChoices, size_t ContinueIndex) {
  assert(NumChoices > 0 && "pickChoice() with no options");
  if (NumChoices == 1)
    return 0;
  if (Opts.ChoiceHook) {
    size_t Pick = Opts.ChoiceHook(NumChoices, ContinueIndex);
    return Pick < NumChoices ? Pick : NumChoices - 1;
  }
  return static_cast<size_t>(SchedRng.nextBelow(NumChoices));
}

//===----------------------------------------------------------------------===//
// Instrumentation interface
//===----------------------------------------------------------------------===//

race::Addr Runtime::allocAddr(size_t Count) {
  race::Addr Base = NextAddr;
  NextAddr += Count;
  return Base;
}

void Runtime::read(race::Addr A, const std::string &Name) {
  preemptPoint();
  if (Opts.DetectRaces)
    Det->onRead(tid(), A, Name);
}

void Runtime::write(race::Addr A, const std::string &Name) {
  preemptPoint();
  if (Opts.DetectRaces)
    Det->onWrite(tid(), A, Name);
}

//===----------------------------------------------------------------------===//
// Process-fork support and watchdog calibration
//===----------------------------------------------------------------------===//

void rt::prepareChildAfterFork() {
  // fork() clones only the calling thread: any Runtime active on ANOTHER
  // thread of the parent is gone, but this thread's own thread-locals are
  // inherited. The caller forks from supervisor code (never from inside a
  // run), so an inherited ActiveRuntime would be a supervisor bug — still,
  // clear the hard-abort latch so a stray signal cannot jump into a
  // jmp_buf that belongs to a parent stack frame. The SIGURG handler is
  // inherited like every signal disposition. The parent thread's timer is
  // not: timers do not survive fork(), and each names its thread by id.
  // Forget it, and the child's first armed run creates its own.
  HardAbortArmed = 0;
  ActiveRuntime = nullptr;
  WatchdogTimer.Live = false;
  // A pool worker (sweep::pooled) lives through MANY runs, each arming
  // its own watchdog, so the child must start with SIGURG deliverable:
  // fork() inherits the calling thread's signal mask, and a supervisor
  // that happened to block SIGURG (e.g. around its own poll loop) would
  // otherwise silently disarm the hard-abort path for every run the
  // worker ever executes.
  sigset_t Unblock;
  sigemptyset(&Unblock);
  sigaddset(&Unblock, SIGURG);
  pthread_sigmask(SIG_UNBLOCK, &Unblock, nullptr);
}

uint64_t rt::calibratedWatchdogBudgetMillis(uint64_t FloorMillis) {
  // The documented calibration caveat (DESIGN.md §9): a static budget
  // tuned on an idle machine trips the soft path on innocent runs when
  // the host is loaded (CI neighbors, saboteur spins on sibling threads).
  // Instead of guessing, measure: time a fixed micro-run of the scheduler
  // itself — spawn/yield churn touching the same code the budget guards —
  // and scale it by a generous safety factor. The probe runs once per
  // process (first caller pays ~a few ms) and is monotone under load:
  // a slow machine yields a bigger budget, which is exactly the point.
  static const uint64_t Probe = [] {
    using Clock = std::chrono::steady_clock;
    auto Start = Clock::now();
    for (int Rep = 0; Rep < 4; ++Rep) {
      RunOptions PO;
      PO.Seed = 1;
      PO.PreemptProbability = 0.5;
      PO.MaxSteps = 20'000;
      PO.DetectRaces = false;
      Runtime RT(PO);
      RT.run([] {
        for (int I = 0; I < 8; ++I)
          Runtime::current().go("probe", [] {
            for (int Y = 0; Y < 200; ++Y)
              gosched();
          });
        for (int Y = 0; Y < 200; ++Y)
          gosched();
      });
    }
    auto Micros = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - Start)
                      .count();
    // 50x the probe: wide enough that concurrent CPU-spin saboteurs on
    // sibling threads do not starve an innocent run past its budget, yet
    // derived from this machine's actual speed rather than a constant.
    return static_cast<uint64_t>(Micros) * 50 / 1000;
  }();
  return std::max<uint64_t>(Probe, FloorMillis);
}
