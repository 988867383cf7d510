//===- sweep/Sandbox.h - Worker sandbox tiers & death taxonomy --*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a sandboxed sweep child may do, and what its death means.
///
/// Two exports used by the forking executor (sweep/Pool.h):
///
/// 1. classifyChildDeath(): the waitpid()-status -> FaultClass taxonomy.
///    One function, one set of detail strings — a chronic fault must
///    quarantine with the SAME record bytes whichever worker contained
///    it, or journal bit-identity across pool sizes breaks.
///
/// 2. The tiered syscall sandbox applied INSIDE a worker after
///    inject::enterSandbox() and the rlimits. Tiers stack, each opt-in
///    and individually probed at runtime:
///
///      RlimitOnly      — the baseline: RLIMIT_AS headroom, no core
///                        files. Always available.
///      + Landlock      — an LSM ruleset that denies all filesystem
///                        WRITE access (the worker only computes and
///                        writes to its inherited socket).
///      + Seccomp       — a BPF deny-list: no execve, no fork, no
///                        ptrace, no new sockets, no mount/chroot/reboot,
///                        no setuid, no opening files at all. The list
///                        must stay permissive enough for the runtime
///                        itself (timer_create for the watchdog,
///                        mmap/brk for the allocator, futex).
///
///    Probing is non-destructive in the parent (capability checks
///    only); application is destructive and happens once per worker,
///    post-fork. Every failure degrades to the previous tier — a kernel
///    without landlock or seccomp runs the exact PR-5 sandbox, never a
///    hard failure. The tier actually applied is reported back over the
///    worker's socket so PoolStats and the `grs_isolation_sandbox_tier`
///    gauge tell the truth per host.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SWEEP_SANDBOX_H
#define GRS_SWEEP_SANDBOX_H

#include "sweep/Checkpoint.h"

#include <cstdint>
#include <string>

namespace grs {
namespace sweep {

//===----------------------------------------------------------------------===//
// Death taxonomy (pool supervision)
//===----------------------------------------------------------------------===//

/// How a sandboxed child ended, mapped into the checkpoint FaultClass
/// space so quarantine records look the same as in-process ones.
struct ChildDeath {
  FaultClass Class = FaultClass::None;
  std::string Detail;
};

/// Maps a waitpid() status (or a supervisor kill) to the death taxonomy.
/// Details are deterministic for deterministic faults: signal numbers
/// and exit codes, never timings.
ChildDeath classifyChildDeath(int Status, bool SupervisorKilled);

//===----------------------------------------------------------------------===//
// Sandbox tiers
//===----------------------------------------------------------------------===//

/// The strongest confinement actually applied to a worker, in increasing
/// order (numeric values are stable: they are exported as a gauge).
enum class SandboxTier : uint8_t {
  RlimitOnly = 0,      ///< rlimits + inject::enterSandbox only
  Landlock = 1,        ///< + landlock deny-all-FS-writes ruleset
  Seccomp = 2,         ///< + seccomp BPF syscall deny-list
  SeccompLandlock = 3, ///< both hardening layers active
};

const char *sandboxTierName(SandboxTier T);

/// Non-destructive parent-side probes: does this kernel support the
/// mechanism at all? (Application can still fail per-worker; these only
/// gate whether trying is worthwhile and what tests should expect.)
bool seccompSupported();
bool landlockSupported();

/// Applies the requested hardening INSIDE a worker, after
/// inject::enterSandbox() and rlimits. Each layer that fails is skipped
/// (graceful fallback, never fatal); the returned tier reflects what
/// actually took. With both flags false this is a no-op returning
/// RlimitOnly.
///
/// The seccomp tier denies open/openat/openat2/creat outright. That is
/// sound only because a pool worker needs no file: it is handed its one
/// socket at fork and the parent holds the journal.
SandboxTier applyWorkerSandbox(bool EnableSeccomp, bool EnableLandlock);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_SANDBOX_H
