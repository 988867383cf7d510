//===- svc/Store.cpp - Crash-consistent on-disk job store -----------------===//

#include "svc/Store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace grs;
using namespace grs::svc;

namespace {

bool makeDir(const std::string &Path) {
  return mkdir(Path.c_str(), 0777) == 0 || errno == EEXIST;
}

/// fsync a directory so a rename inside it is durable.
void syncDir(const std::string &Dir) {
  int Fd = open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  fsync(Fd);
  close(Fd);
}

std::string dirOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? std::string(".")
                                    : Path.substr(0, Slash);
}

} // namespace

std::string JobStore::idForSequence(uint64_t Seq) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "job-%06llu",
                static_cast<unsigned long long>(Seq));
  return Buf;
}

JobPaths JobStore::paths(const std::string &Id) const {
  JobPaths P;
  P.Dir = Root + "/" + Id;
  P.Spec = P.Dir + "/spec.json";
  P.Journal = P.Dir + "/slots.ckpt";
  P.Result = P.Dir + "/result.json";
  return P;
}

bool JobStore::init(std::string &Error) {
  // mkdir -p over each prefix of the root path.
  for (size_t Pos = 1; Pos <= Root.size(); ++Pos) {
    if (Pos != Root.size() && Root[Pos] != '/')
      continue;
    std::string Prefix = Root.substr(0, Pos);
    if (Prefix.empty() || Prefix == "/")
      continue;
    if (!makeDir(Prefix)) {
      Error = "cannot create " + Prefix + ": " + std::strerror(errno);
      return false;
    }
  }
  return true;
}

bool JobStore::writeAtomic(const std::string &Path, const std::string &Bytes,
                           std::string &Error) const {
  std::string Dir = dirOf(Path);
  if (!makeDir(Dir)) {
    Error = "cannot create " + Dir + ": " + std::strerror(errno);
    return false;
  }
  std::string Tmp = Path + ".tmp";
  int Fd = open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (Fd < 0) {
    Error = "cannot create " + Tmp + ": " + std::strerror(errno);
    return false;
  }
  const char *Data = Bytes.data();
  size_t Left = Bytes.size();
  while (Left) {
    ssize_t N = write(Fd, Data, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = "write to " + Tmp + " failed: " + std::strerror(errno);
      close(Fd);
      unlink(Tmp.c_str());
      return false;
    }
    Data += N;
    Left -= static_cast<size_t>(N);
  }
  if (fsync(Fd) != 0) {
    Error = "fsync of " + Tmp + " failed: " + std::strerror(errno);
    close(Fd);
    unlink(Tmp.c_str());
    return false;
  }
  close(Fd);
  if (rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = "rename to " + Path + " failed: " + std::strerror(errno);
    unlink(Tmp.c_str());
    return false;
  }
  syncDir(Dir);
  return true;
}

bool JobStore::readFile(const std::string &Path, std::string &Out) {
  int Fd = open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return false;
  Out.clear();
  char Buf[65536];
  for (;;) {
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Out.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    close(Fd);
    return N == 0;
  }
}

bool JobStore::exists(const std::string &Path) {
  struct stat St;
  return stat(Path.c_str(), &St) == 0;
}

bool JobStore::recover(std::vector<Recovered> &Out, std::string &Error) const {
  Out.clear();
  DIR *D = opendir(Root.c_str());
  if (!D) {
    Error = "cannot open " + Root + ": " + std::strerror(errno);
    return false;
  }
  std::vector<std::string> Ids;
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.rfind("job-", 0) == 0)
      Ids.push_back(Name);
  }
  closedir(D);
  std::sort(Ids.begin(), Ids.end());
  for (const std::string &Id : Ids) {
    JobPaths P = paths(Id);
    std::string SpecText;
    if (!readFile(P.Spec, SpecText))
      continue; // dir without a spec: admission died pre-commit; garbage
    Recovered R;
    R.Id = Id;
    support::Json V;
    std::string ParseError;
    if (!support::parseJson(SpecText, V, ParseError) ||
        !JobSpec::parse(V, R.Spec, ParseError))
      R.SpecError = "spec.json unreadable: " + ParseError;
    if (readFile(P.Result, R.ResultText))
      R.Terminal = true;
    Out.push_back(std::move(R));
  }
  return true;
}

uint64_t JobStore::maxSequence() const {
  DIR *D = opendir(Root.c_str());
  if (!D)
    return 0;
  uint64_t Max = 0;
  while (struct dirent *E = readdir(D)) {
    unsigned long long Seq = 0;
    if (std::sscanf(E->d_name, "job-%llu", &Seq) == 1)
      Max = std::max<uint64_t>(Max, Seq);
  }
  closedir(D);
  return Max;
}
