//===- sweep/Cgroup.cpp - cgroup-v2 memory accounting for workers ---------===//

#include "sweep/Cgroup.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

using namespace grs;
using namespace grs::sweep;

namespace {

/// The cgroup2 mount point, from /proc/self/mounts (it is NOT always
/// /sys/fs/cgroup — hybrid-hierarchy hosts mount it at
/// /sys/fs/cgroup/unified). Empty when there is none.
std::string cgroup2Mount() {
  std::ifstream In("/proc/self/mounts");
  std::string Dev, Dir, Type;
  while (In >> Dev >> Dir >> Type) {
    std::string Rest;
    std::getline(In, Rest);
    if (Type == "cgroup2")
      return Dir;
  }
  return "";
}

/// This process's own cgroup path within the v2 hierarchy — the "0::"
/// line of /proc/self/cgroup. New cgroups must be created under (a
/// parent of) it; elsewhere is not delegated to us.
std::string ownCgroupPath() {
  std::ifstream In("/proc/self/cgroup");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("0::", 0) == 0)
      return Line.substr(3);
  return "";
}

bool readFileString(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFileString(const std::string &Path, const std::string &Value) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << Value;
  Out.flush();
  return Out.good();
}

} // namespace

CgroupMemory::~CgroupMemory() { teardown(); }

bool CgroupMemory::setup(unsigned Workers, uint64_t LimitBytes) {
  teardown();
  std::string Mount = cgroup2Mount();
  if (Mount.empty())
    return false;
  std::string Own = ownCgroupPath();
  if (Own.empty())
    return false;
  if (Own == "/")
    Own.clear();
  std::string Base = Mount + Own;

  // The memory controller must be available at our level...
  std::string Controllers;
  if (!readFileString(Base + "/cgroup.controllers", Controllers) ||
      Controllers.find("memory") == std::string::npos)
    return false;

  // A cgroup with member processes cannot enable controllers for its
  // children ("no internal process" rule). Our processes live in Base,
  // so worker cgroups must be grandchildren: Base/grs-pool-<pid>/w<i>,
  // with memory delegated at each level via subtree_control.
  std::string Pool = Base + "/grs-pool-" + std::to_string(getpid());
  if (mkdir(Pool.c_str(), 0755) != 0 && errno != EEXIST)
    return false;
  PoolDir = Pool;
  if (!writeFileString(Base + "/cgroup.subtree_control", "+memory") ||
      !writeFileString(Pool + "/cgroup.subtree_control", "+memory")) {
    teardown();
    return false;
  }
  for (unsigned I = 0; I < Workers; ++I) {
    std::string W = Pool + "/w" + std::to_string(I);
    if (mkdir(W.c_str(), 0755) != 0 && errno != EEXIST) {
      teardown();
      return false;
    }
    WorkerDirs.push_back(W);
    std::string Limit =
        LimitBytes ? std::to_string(LimitBytes) : std::string("max");
    if (!writeFileString(W + "/memory.max", Limit)) {
      teardown();
      return false;
    }
  }
  Active = true;
  return true;
}

bool CgroupMemory::attach(unsigned Idx, pid_t Pid) const {
  if (!Active || Idx >= WorkerDirs.size())
    return false;
  return writeFileString(WorkerDirs[Idx] + "/cgroup.procs",
                         std::to_string(Pid));
}

uint64_t CgroupMemory::oomKills(unsigned Idx) const {
  if (!Active || Idx >= WorkerDirs.size())
    return UINT64_MAX;
  std::string Events;
  if (!readFileString(WorkerDirs[Idx] + "/memory.events", Events))
    return UINT64_MAX;
  std::istringstream In(Events);
  std::string Key;
  uint64_t Value = 0;
  while (In >> Key >> Value)
    if (Key == "oom_kill")
      return Value;
  return UINT64_MAX;
}

void CgroupMemory::teardown() {
  for (const std::string &W : WorkerDirs)
    rmdir(W.c_str());
  WorkerDirs.clear();
  if (!PoolDir.empty())
    rmdir(PoolDir.c_str());
  PoolDir.clear();
  Active = false;
}
