//===- lang/Interp.h - Tree-walking interpreter for grs ---------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a parsed grs Program on the deterministic runtime. The
/// interpreter's primitives are EXACTLY the rt/ surface:
///
///   go f() / go "label" f()      rt::Runtime::go (label = root chain frame)
///   make(chan[, cap]) / <- / close   rt::Chan<Value>
///   select { case ... default: }     rt::Selector
///   mutex()/rwmutex()/waitgroup()    rt::Mutex / rt::RWMutex / rt::WaitGroup
///   make(map) / make(slice, n)       rt::GoMap / rt::GoSlice (struct- and
///                                    meta-field shadow accesses included)
///   every variable read/write        Runtime::read/write on a per-cell
///                                    shadow address (= preemption point)
///
/// Closures capture variables BY REFERENCE (shared cells), so the paper's
/// loop-variable-capture races are expressible exactly as in Go. Named
/// function literals and top-level functions push a call-chain frame on
/// entry (anonymous literals do not); goroutine labels become the chain's
/// root frame — together these give a ported `.grs` program the same
/// §3.3.1 fingerprints as its hand-written C++ corpus twin.
///
/// Error model: grs type errors and panics raise rt::GoPanic (deferred
/// calls still run), so a broken program loses its own run — recorded in
/// RunResult::Panics — never the sweep hosting it.
///
/// A Program is immutable and may be shared across threads; each run
/// builds its own interpreter state, so `runner()` is safe to hand to a
/// thread-parallel executor (sweep::resilient with Threads > 1).
///
//===----------------------------------------------------------------------===//

#ifndef GRS_LANG_INTERP_H
#define GRS_LANG_INTERP_H

#include "lang/Ast.h"
#include "rt/Runtime.h"

#include <functional>
#include <memory>

namespace grs {
namespace lang {

/// A goroutine-0 body executing \p P (entry point: `func main()`).
/// Drop-in for rt::Runtime::run and corpus::hostBody.
std::function<void()> body(std::shared_ptr<const Program> P);

/// Runs \p P to completion inside \p RT. Equivalent to RT.run(body(P)).
rt::RunResult run(std::shared_ptr<const Program> P, rt::Runtime &RT);

/// Non-owning convenience overload; \p P must outlive \p RT (leaked
/// goroutines hold interpreter state until the Runtime is destroyed).
rt::RunResult run(const Program &P, rt::Runtime &RT);

/// A sweep::Runner-compatible runner: one fresh Runtime per invocation,
/// so the same interpreted program sweeps exactly like a compiled body.
std::function<rt::RunResult(const rt::RunOptions &)>
runner(std::shared_ptr<const Program> P);

} // namespace lang
} // namespace grs

#endif // GRS_LANG_INTERP_H
