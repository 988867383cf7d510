//===- sweep/Sandbox.cpp - Worker sandbox tiers & death taxonomy ----------===//

#include "sweep/Sandbox.h"

#include "inject/Fault.h"

#include <cerrno>
#include <cstddef>
#include <vector>

#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace grs;
using namespace grs::sweep;

//===----------------------------------------------------------------------===//
// Death taxonomy
//===----------------------------------------------------------------------===//

ChildDeath sweep::classifyChildDeath(int Status, bool SupervisorKilled) {
  if (SupervisorKilled)
    return {FaultClass::Watchdog, "supervisor killed stalled child"};
  if (WIFSIGNALED(Status)) {
    int Sig = WTERMSIG(Status);
    if (Sig == SIGXCPU)
      return {FaultClass::Rlimit, "child hit RLIMIT_CPU (SIGXCPU)"};
    if (Sig == SIGKILL)
      return {FaultClass::OomKill,
              "child SIGKILLed externally (presumed kernel OOM kill)"};
    return {FaultClass::Signal,
            "child killed by signal " + std::to_string(Sig)};
  }
  if (WIFEXITED(Status)) {
    int Code = WEXITSTATUS(Status);
    if (Code == inject::OomExitCode)
      return {FaultClass::OomKill,
              "child exit " + std::to_string(Code) +
                  ": allocation failure under RLIMIT_AS"};
    return {FaultClass::PartialExit,
            "child exited with code " + std::to_string(Code) +
                " before completing its batch"};
  }
  return {FaultClass::Signal, "child ended unrecognizably"};
}

//===----------------------------------------------------------------------===//
// Sandbox tiers
//===----------------------------------------------------------------------===//

const char *sweep::sandboxTierName(SandboxTier T) {
  switch (T) {
  case SandboxTier::RlimitOnly:
    return "rlimit_only";
  case SandboxTier::Landlock:
    return "landlock";
  case SandboxTier::Seccomp:
    return "seccomp";
  case SandboxTier::SeccompLandlock:
    return "seccomp_landlock";
  }
  return "rlimit_only";
}

//===----------------------------------------------------------------------===//
// Landlock (syscall numbers + ABI structs defined locally: the header
// <linux/landlock.h> may predate the toolchain even on kernels that
// support the feature, and vice versa)
//===----------------------------------------------------------------------===//

#ifndef GRS_SYS_landlock_create_ruleset
#define GRS_SYS_landlock_create_ruleset 444
#define GRS_SYS_landlock_restrict_self 446
#endif

namespace {

struct GrsLandlockRulesetAttr {
  uint64_t HandledAccessFs;
};

// LANDLOCK_CREATE_RULESET_VERSION
constexpr uint32_t GrsLandlockVersionFlag = 1u << 0;

// The write-side LANDLOCK_ACCESS_FS_* bits present since ABI v1
// (EXECUTE..MAKE_SYM, bits 0..12 minus the read bits we keep). We deny
// every mutating access; reads stay open (the runtime may read
// /proc/self for diagnostics).
constexpr uint64_t GrsLandlockWriteAccess =
    (1ULL << 1) |  // WRITE_FILE
    (1ULL << 4) |  // REMOVE_DIR
    (1ULL << 5) |  // REMOVE_FILE
    (1ULL << 6) |  // MAKE_CHAR
    (1ULL << 7) |  // MAKE_DIR
    (1ULL << 8) |  // MAKE_REG
    (1ULL << 9) |  // MAKE_SOCK
    (1ULL << 10) | // MAKE_FIFO
    (1ULL << 11) | // MAKE_BLOCK
    (1ULL << 12);  // MAKE_SYM

int landlockAbiVersion() {
  return (int)syscall(GRS_SYS_landlock_create_ruleset, nullptr, 0,
                      GrsLandlockVersionFlag);
}

/// Installs a ruleset that handles every write-ish FS access and grants
/// no rules — i.e. denies all filesystem mutation. Returns true when the
/// restriction took.
bool applyLandlock() {
  GrsLandlockRulesetAttr Attr = {GrsLandlockWriteAccess};
  int Fd = (int)syscall(GRS_SYS_landlock_create_ruleset, &Attr, sizeof(Attr),
                        0u);
  if (Fd < 0)
    return false;
  // Required before restrict_self without CAP_SYS_ADMIN; also required
  // for seccomp below, and harmless to set twice.
  if (prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0) {
    close(Fd);
    return false;
  }
  bool Ok = syscall(GRS_SYS_landlock_restrict_self, Fd, 0u) == 0;
  close(Fd);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Seccomp BPF deny-list
//===----------------------------------------------------------------------===//

/// Deny-list (default-allow) filter. A deny-list — not an allow-list —
/// because the worker runs the full runtime + detector + allocator and
/// an allow-list would turn every libc upgrade into a kill storm. The
/// denied families are the ones a confined compute worker has no
/// business in: spawning processes, tracing, networking, mounting,
/// privilege changes, and opening files at all (a pool worker is handed
/// its one socket at fork and opens nothing).
bool applySeccomp() {
  if (prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0)
    return false;

  constexpr uint32_t Allow = SECCOMP_RET_ALLOW;
  // EPERM instead of kill: a denied syscall from library code surfaces
  // as an ordinary error the caller can report, not an opaque SIGSYS
  // death the supervisor would misclassify.
  constexpr uint32_t Deny = SECCOMP_RET_ERRNO | (EPERM & SECCOMP_RET_DATA);

  const int DeniedOutright[] = {
#ifdef SYS_execve
    SYS_execve,
#endif
#ifdef SYS_execveat
    SYS_execveat,
#endif
#ifdef SYS_fork
    SYS_fork,
#endif
#ifdef SYS_vfork
    SYS_vfork,
#endif
#ifdef SYS_ptrace
    SYS_ptrace,
#endif
#ifdef SYS_socket
    SYS_socket,
#endif
#ifdef SYS_connect
    SYS_connect,
#endif
#ifdef SYS_accept
    SYS_accept,
#endif
#ifdef SYS_accept4
    SYS_accept4,
#endif
#ifdef SYS_bind
    SYS_bind,
#endif
#ifdef SYS_listen
    SYS_listen,
#endif
#ifdef SYS_mount
    SYS_mount,
#endif
#ifdef SYS_umount2
    SYS_umount2,
#endif
#ifdef SYS_pivot_root
    SYS_pivot_root,
#endif
#ifdef SYS_chroot
    SYS_chroot,
#endif
#ifdef SYS_reboot
    SYS_reboot,
#endif
#ifdef SYS_kexec_load
    SYS_kexec_load,
#endif
#ifdef SYS_init_module
    SYS_init_module,
#endif
#ifdef SYS_finit_module
    SYS_finit_module,
#endif
#ifdef SYS_delete_module
    SYS_delete_module,
#endif
#ifdef SYS_setuid
    SYS_setuid,
#endif
#ifdef SYS_setgid
    SYS_setgid,
#endif
#ifdef SYS_setreuid
    SYS_setreuid,
#endif
#ifdef SYS_setregid
    SYS_setregid,
#endif
#ifdef SYS_open
    SYS_open,
#endif
#ifdef SYS_openat
    SYS_openat,
#endif
#ifdef SYS_openat2
    SYS_openat2,
#endif
#ifdef SYS_creat
    SYS_creat,
#endif
  };

  std::vector<struct sock_filter> Prog;
  // Load the syscall number.
  Prog.push_back(
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(struct seccomp_data, nr)));
  for (int Nr : DeniedOutright) {
    // if (nr == Nr) return Deny
    Prog.push_back(BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, (uint32_t)Nr, 0, 1));
    Prog.push_back(BPF_STMT(BPF_RET | BPF_K, Deny));
  }

  // Everything else — including timer_create/timer_settime (the
  // watchdog's per-thread timer), mmap/brk (allocator), futex (locks) and
  // read/write/sendto on the inherited socket — is allowed.
  Prog.push_back(BPF_STMT(BPF_RET | BPF_K, Allow));

  struct sock_fprog FProg;
  FProg.len = (unsigned short)Prog.size();
  FProg.filter = Prog.data();
  return prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &FProg, 0, 0) == 0;
}

} // namespace

bool sweep::seccompSupported() {
  // PR_GET_SECCOMP answers (0/1/2) on any kernel with seccomp compiled
  // in; EINVAL/ENOSYS means no support. Non-destructive.
  return prctl(PR_GET_SECCOMP, 0, 0, 0, 0) >= 0;
}

bool sweep::landlockSupported() { return landlockAbiVersion() >= 1; }

SandboxTier sweep::applyWorkerSandbox(bool EnableSeccomp,
                                      bool EnableLandlock) {
  bool LandlockOn = EnableLandlock && landlockSupported() && applyLandlock();
  // Seccomp last: once the filter is live every later syscall is subject
  // to it (landlock_restrict_self is not on the deny-list, but ordering
  // this way keeps the layers independent).
  bool SeccompOn =
      EnableSeccomp && seccompSupported() && applySeccomp();
  if (SeccompOn && LandlockOn)
    return SandboxTier::SeccompLandlock;
  if (SeccompOn)
    return SandboxTier::Seccomp;
  if (LandlockOn)
    return SandboxTier::Landlock;
  return SandboxTier::RlimitOnly;
}
