//===- sweep/Helpers.cpp - Sweep threads that outlive a call --------------===//

#include "sweep/Helpers.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace grs;

namespace {

/// One fanOut() call's count of helpers still working, and the first
/// exception one of them threw.
struct Batch {
  std::mutex M;
  std::condition_variable AllDone;
  unsigned Pending = 0;
  std::exception_ptr Error;
};

/// One helper thread and the work it was handed.
struct Helper {
  std::mutex M;
  std::condition_variable Wake;
  const std::function<void(unsigned)> *Work = nullptr;
  unsigned Worker = 0;
  Batch *Owner = nullptr;
};

/// The helpers of one process. Leaked, like the helpers themselves: they
/// park on it until the process exits.
struct HelperSet {
  explicit HelperSet(pid_t Pid) : Pid(Pid) {}
  const pid_t Pid;
  std::mutex M;
  std::vector<Helper *> Idle;
};

std::atomic<HelperSet *> CurrentSet{nullptr};

/// This process's set. A forked child finds its parent's set under
/// another pid and replaces it without touching it: the child has none of
/// its threads, and another parent thread may have held its mutex at the
/// fork.
HelperSet &helperSet() {
  pid_t Pid = getpid();
  HelperSet *Set = CurrentSet.load(std::memory_order_acquire);
  while (!Set || Set->Pid != Pid) {
    auto *Fresh = new HelperSet(Pid);
    if (CurrentSet.compare_exchange_strong(Set, Fresh,
                                           std::memory_order_acq_rel)) {
      Set = Fresh;
    } else {
      delete Fresh;
    }
  }
  return *Set;
}

void helperMain(HelperSet *Set, Helper *H) {
  for (;;) {
    const std::function<void(unsigned)> *Work = nullptr;
    unsigned Worker = 0;
    Batch *Owner = nullptr;
    {
      std::unique_lock<std::mutex> Lock(H->M);
      H->Wake.wait(Lock, [H] { return H->Work != nullptr; });
      Work = H->Work;
      Worker = H->Worker;
      Owner = H->Owner;
      H->Work = nullptr;
    }
    std::exception_ptr Error;
    try {
      (*Work)(Worker);
    } catch (...) {
      Error = std::current_exception();
    }
    {
      // Idle again before the caller can return, so its next call finds
      // this helper instead of starting a thread.
      std::lock_guard<std::mutex> Lock(Set->M);
      Set->Idle.push_back(H);
    }
    // Notified under the lock: the caller cannot return, destroying the
    // batch, until this thread is done with it.
    std::lock_guard<std::mutex> Lock(Owner->M);
    if (Error && !Owner->Error)
      Owner->Error = Error;
    if (--Owner->Pending == 0)
      Owner->AllDone.notify_one();
  }
}

} // namespace

void sweep::fanOut(unsigned Workers,
                   const std::function<void(unsigned Worker)> &Work) {
  if (Workers <= 1) {
    Work(0);
    return;
  }
  HelperSet &Set = helperSet();
  Batch B;
  B.Pending = Workers - 1;
  unsigned Started = 1;
  std::exception_ptr Error;
  try {
    for (; Started < Workers; ++Started) {
      Helper *H = nullptr;
      {
        std::lock_guard<std::mutex> Lock(Set.M);
        if (!Set.Idle.empty()) {
          H = Set.Idle.back();
          Set.Idle.pop_back();
        }
      }
      if (!H) {
        H = new Helper;
        std::thread(helperMain, &Set, H).detach();
      }
      {
        std::lock_guard<std::mutex> Lock(H->M);
        H->Work = &Work;
        H->Worker = Started;
        H->Owner = &B;
      }
      H->Wake.notify_one();
    }
    Work(0);
  } catch (...) {
    Error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> Lock(B.M);
    // Workers that never started (a thread the system refused) have
    // nothing to finish.
    B.Pending -= Workers - Started;
    B.AllDone.wait(Lock, [&B] { return B.Pending == 0; });
    if (!Error)
      Error = B.Error;
  }
  if (Error)
    std::rethrow_exception(Error);
}
