//===- rt/Instr.h - Instrumented variables and call-chain scopes -*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation surface corpus programs use:
///
///  * FuncScope — RAII frame for the goroutine's call chain, standing in
///    for compiler-inserted instrumentation. Race reports then carry the
///    two call chains the paper's pipeline fingerprints (§3.3.1).
///  * Shared<T> — an instrumented Go variable. Every load/store is a
///    detector event and a potential preemption point. C++ lambdas with
///    `[&]` capture Shared locals by reference exactly like Go closures
///    transparently capture free variables (Observation 3).
///  * GoAtomic<T> — sync/atomic-style cell: atomic ops synchronize (HB
///    edges), and deliberately-unsynchronized raw accesses are available
///    to model the partial-atomics misuse of §4.9.2.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_RT_INSTR_H
#define GRS_RT_INSTR_H

#include "rt/Runtime.h"

#include <string>
#include <utility>

namespace grs {
namespace rt {

/// RAII call-chain frame: push on construction, pop on destruction.
/// Mirrors function-entry instrumentation in an instrumented Go build.
class FuncScope {
public:
  FuncScope(const std::string &Function, const std::string &File,
            uint32_t Line)
      : RT(Runtime::current()), T(RT.tid()) {
    RT.det().pushFrame(T, RT.det().makeFrame(Function, File, Line));
  }

  explicit FuncScope(const std::string &Function)
      : FuncScope(Function, "unknown.go", 0) {}

  ~FuncScope() { RT.det().popFrame(T); }

  FuncScope(const FuncScope &) = delete;
  FuncScope &operator=(const FuncScope &) = delete;

private:
  Runtime &RT;
  race::Tid T;
};

/// Marks the current statement's line number within the innermost frame,
/// standing in for per-statement debug locations.
inline void atLine(uint32_t Line) {
  Runtime &RT = Runtime::current();
  RT.det().setLine(RT.tid(), Line);
}

/// An instrumented Go variable of value type \p T.
///
/// Each Shared owns a virtual shadow address allocated from the active
/// runtime, and interns its name there once; loads and stores are routed
/// through Runtime::read()/write(). Copying a Shared reads the source
/// (like `x := y` in Go) and gives the copy a fresh address (it is a
/// different variable).
template <typename T> class Shared {
public:
  explicit Shared(const std::string &Name = std::string(), T Init = T())
      : Name(Runtime::current().intern(Name)),
        A(Runtime::current().allocAddr()), Value(std::move(Init)) {}

  Shared(const Shared &Other)
      : Name(Other.Name), A(Runtime::current().allocAddr()),
        Value(Other.load()) {}

  Shared &operator=(const Shared &Other) {
    store(Other.load());
    return *this;
  }

  /// Instrumented read.
  T load() const {
    Runtime::current().read(A, Name);
    return Value;
  }

  /// Instrumented write.
  void store(T NewValue) {
    Runtime::current().write(A, Name);
    Value = std::move(NewValue);
  }

  /// Assignment sugar: `X = V` is an instrumented store.
  Shared &operator=(T NewValue) {
    store(std::move(NewValue));
    return *this;
  }

  /// Conversion sugar: using the variable is an instrumented load.
  operator T() const { return load(); }

  /// Uninstrumented access for assertions in tests (not a program event).
  const T &raw() const { return Value; }
  T &rawMutable() { return Value; }

  race::Addr addr() const { return A; }
  const std::string &name() const {
    return Runtime::current().nameText(Name);
  }

private:
  race::StrId Name;
  race::Addr A;
  T Value;
};

/// A sync/atomic-style cell: store() is a release, load() an acquire, so
/// properly paired atomic accesses never race. rawLoad()/rawStore() touch
/// the same location *without* synchronization, modelling developers who
/// "used sync.Atomic partially — used for writing to a shared variable but
/// forgot to use it to read from the same variable" (§4.9.2).
template <typename T> class GoAtomic {
public:
  explicit GoAtomic(const std::string &Name = std::string(), T Init = T())
      : Name(Runtime::current().intern(Name)),
        A(Runtime::current().allocAddr()),
        Sync(Runtime::current().det().newSyncVar(Name + ".atomic")),
        Value(std::move(Init)) {}

  GoAtomic(const GoAtomic &) = delete;
  GoAtomic &operator=(const GoAtomic &) = delete;

  /// Atomic load. The access is recorded between an acquire and a release
  /// of the cell's sync var, so atomic ops are totally ordered among
  /// themselves (seq-cst modelling: no atomic/atomic false positives)
  /// while still racing against plain accesses of the same cell.
  T load() const {
    Runtime &RT = Runtime::current();
    RT.preemptPoint();
    RT.det().annotate(race::EventKind::AtomicOp, RT.tid(), A,
                      /*Flag=*/false, &RT.nameText(Name));
    RT.det().acquire(RT.tid(), Sync);
    if (RT.options().DetectRaces)
      RT.det().onRead(RT.tid(), A, Name);
    RT.det().releaseMerge(RT.tid(), Sync);
    return Value;
  }

  /// Atomic store; see load() for the synchronization recipe.
  void store(T NewValue) {
    Runtime &RT = Runtime::current();
    RT.preemptPoint();
    RT.det().annotate(race::EventKind::AtomicOp, RT.tid(), A,
                      /*Flag=*/true, &RT.nameText(Name));
    RT.det().acquire(RT.tid(), Sync);
    if (RT.options().DetectRaces)
      RT.det().onWrite(RT.tid(), A, Name);
    RT.det().releaseMerge(RT.tid(), Sync);
    Value = std::move(NewValue);
  }

  /// Atomic read-modify-write add (returns the new value).
  T add(T Delta) {
    Runtime &RT = Runtime::current();
    RT.preemptPoint();
    RT.det().annotate(race::EventKind::AtomicOp, RT.tid(), A,
                      /*Flag=*/true, &RT.nameText(Name));
    RT.det().acquire(RT.tid(), Sync);
    if (RT.options().DetectRaces) {
      RT.det().onRead(RT.tid(), A, Name);
      RT.det().onWrite(RT.tid(), A, Name);
    }
    RT.det().releaseMerge(RT.tid(), Sync);
    Value = Value + Delta;
    return Value;
  }

  /// Plain (racy) load of the same cell — the §4.9.2 misuse.
  T rawLoad() const {
    Runtime::current().read(A, Name);
    return Value;
  }

  /// Plain (racy) store of the same cell.
  void rawStore(T NewValue) {
    Runtime::current().write(A, Name);
    Value = std::move(NewValue);
  }

private:
  race::StrId Name;
  race::Addr A;
  race::SyncId Sync;
  T Value;
};

/// Go's `defer`: runs the given action at scope exit, in reverse
/// declaration order (C++ destructor order), like deferred calls running
/// at function return.
class Defer {
public:
  explicit Defer(std::function<void()> Action) : Action(std::move(Action)) {}
  ~Defer() {
    if (Action)
      Action();
  }
  Defer(const Defer &) = delete;
  Defer &operator=(const Defer &) = delete;

private:
  std::function<void()> Action;
};

} // namespace rt
} // namespace grs

#endif // GRS_RT_INSTR_H
