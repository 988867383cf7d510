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
///      RlimitOnly      — the PR-5 baseline: RLIMIT_AS/CPU/STACK, no
///                        core files. Always available.
///      + Landlock      — an LSM ruleset that denies all filesystem
///                        WRITE access (the worker only computes and
///                        writes to inherited fds / shared memory).
///      + Seccomp       — a BPF deny-list: no execve, no fork, no
///                        ptrace, no sockets, no mount/chroot/reboot,
///                        no setuid, no opening files for writing. The
///                        list must stay permissive enough for the
///                        runtime itself (clone for the watchdog
///                        thread, mmap/brk for the allocator, futex).
///
///    Probing is non-destructive in the parent (capability checks
///    only); application is destructive and happens once per worker,
///    post-fork. Every failure degrades to the previous tier — a kernel
///    without landlock or seccomp runs the exact PR-5 sandbox, never a
///    hard failure. The tier actually applied is reported back through
///    worker state so PoolStats and the `grs_isolation_sandbox_tier`
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
/// RlimitOnly — the PR-5 behavior, byte for byte.
///
/// \p DenyFileOpens tightens the seccomp tier from "no opening files
/// for writing" to "no opening files at all" (open/openat join
/// openat2/creat on the outright deny-list). Only sound when the parent
/// pre-opened every fd the worker needs — shm mapped pre-fork, doorbell
/// pipes passed at spawn, journal held parent-side — which is exactly
/// the fork-server pool's fd-passing discipline.
SandboxTier applyWorkerSandbox(bool EnableSeccomp, bool EnableLandlock,
                               bool DenyFileOpens = false);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_SANDBOX_H
