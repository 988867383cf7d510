//===- sweep/Helpers.h - Sweep threads that outlive a call ------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide set of sweep helper threads. resilient() and
/// adaptive() fan their workers out over it: the calling thread is worker
/// 0 and idle helpers are the others. A helper parks between calls
/// instead of exiting, so its run arena (rt/Runtime.h) stays warm from one
/// job to the next, and a process starts a thread only when it needs more
/// helpers at once than it ever needed before (DESIGN.md §8, §17).
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SWEEP_HELPERS_H
#define GRS_SWEEP_HELPERS_H

#include <functional>

namespace grs {
namespace sweep {

/// Runs Work(0) on the calling thread and Work(1) .. Work(Workers - 1) on
/// helper threads, and returns once every call has returned. Borrows idle
/// helpers and starts one only when none is idle, so a process that never
/// asks for more than one worker starts none. Helpers park on a condition
/// variable between calls and are never joined. Concurrent and nested
/// callers each borrow helpers of their own and never wait for a busy
/// one. The set belongs to the process that started it: a forked child
/// never touches the one it inherited, and starts its own. An exception
/// from any Work call is rethrown once every call has returned, the
/// calling thread's own first.
void fanOut(unsigned Workers,
            const std::function<void(unsigned Worker)> &Work);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_HELPERS_H
