//===- perfbench/Common.cpp - Shared benchmark plumbing --------------------===//

#include "Common.h"

#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <arpa/inet.h>
#include <sched.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

namespace perfbench {

void PhaseResult::fail(const std::string &What) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(What);
}

double quantile(std::vector<double> V, double Q) {
  return V.empty() ? 0.0 : grs::support::quantile(std::move(V), Q);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double medianBlockRate(std::vector<double> Ends, size_t Block) {
  std::sort(Ends.begin(), Ends.end());
  Block = std::max<size_t>(Block, 1);
  if (Ends.size() < 2 * Block + 1) {
    double Span = Ends.size() > 1 ? Ends.back() - Ends.front() : 0;
    return Span > 0 ? static_cast<double>(Ends.size() - 1) / Span : 0;
  }
  std::vector<double> Rates;
  for (size_t I = 0; I + Block < Ends.size(); I += Block)
    Rates.push_back(static_cast<double>(Block) / (Ends[I + Block] - Ends[I]));
  return median(std::move(Rates));
}

double medianBlockQuantile(const std::vector<double> &Ms,
                           const std::vector<double> &Ends, size_t Block,
                           double Q) {
  if (Block == 0 || Ms.size() < 3 * Block || Ends.size() != Ms.size())
    return quantile(Ms, Q);
  std::vector<size_t> Order(Ms.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Ends[A] < Ends[B]; });
  std::vector<double> PerBlock;
  for (size_t I = 0; I + Block <= Order.size(); I += Block) {
    std::vector<double> Chunk;
    for (size_t K = I; K < I + Block; ++K)
      Chunk.push_back(Ms[Order[K]]);
    PerBlock.push_back(quantile(std::move(Chunk), Q));
  }
  return median(std::move(PerBlock));
}

double SpanProfile::totalSelfUs() const {
  double T = 0;
  for (double S : SelfUs)
    T += S;
  return T;
}

std::map<std::string, SpanProfile> profileSpans(const obs::Timeline &TL) {
  std::map<std::string, SpanProfile> Out;
  struct Open {
    std::string Name;
    uint64_t StartNs;
    uint64_t ChildNs;
  };
  for (size_t T = 0; T < TL.numTracks(); ++T) {
    const obs::TimelineTrack &Track = TL.trackAt(T);
    std::vector<Open> Stack;
    for (size_t I = 0; I < Track.size(); ++I) {
      const obs::TimelineEvent &E = Track.event(I);
      if (E.Kind == obs::TimelineEventKind::SpanBegin) {
        Stack.push_back({Track.str(E.NameId), E.TsNs, 0});
      } else if (E.Kind == obs::TimelineEventKind::SpanEnd && !Stack.empty()) {
        Open O = Stack.back();
        Stack.pop_back();
        uint64_t Dur = E.TsNs - O.StartNs;
        uint64_t Self = Dur > O.ChildNs ? Dur - O.ChildNs : 0;
        SpanProfile &P = Out[O.Name];
        ++P.Count;
        P.DurUs.push_back(static_cast<double>(Dur) / 1e3);
        P.SelfUs.push_back(static_cast<double>(Self) / 1e3);
        if (!Stack.empty())
          Stack.back().ChildNs += Dur;
      }
    }
  }
  return Out;
}

std::string idArgs(const char *Key, uint64_t Id) {
  return std::string("\"") + Key + "\":" + std::to_string(Id);
}

namespace {

double residentMiB(const std::string &StatmPath) {
  std::ifstream In(StatmPath);
  unsigned long long Size = 0, Resident = 0;
  if (!(In >> Size >> Resident))
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

} // namespace

std::vector<int> liveChildren() {
  std::vector<int> Out;
  int Self = ::getpid();
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator("/proc", Ec)) {
    const std::string Name = E.path().filename().string();
    if (Name.empty() ||
        !std::all_of(Name.begin(), Name.end(), [](char C) {
          return C >= '0' && C <= '9';
        }))
      continue;
    std::ifstream In(E.path() / "stat");
    std::string Line;
    if (!std::getline(In, Line))
      continue;
    // Fields after the parenthesised command: state, ppid, ...
    size_t Close = Line.rfind(')');
    if (Close == std::string::npos)
      continue;
    std::istringstream Rest(Line.substr(Close + 1));
    char State = 0;
    int Ppid = 0;
    if (Rest >> State >> Ppid && Ppid == Self)
      Out.push_back(std::atoi(Name.c_str()));
  }
  return Out;
}

double residentMiBWithChildren() {
  double Total = residentMiB("/proc/self/statm");
  for (int Pid : liveChildren())
    Total += residentMiB("/proc/" + std::to_string(Pid) + "/statm");
  return Total;
}

std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Out;
  if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Set))
        Out.push_back(Cpu);
  return Out;
}

void pinThisThread(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Set);
  ::sched_setaffinity(0, sizeof(Set), &Set);
}

bool timeSetUp(int Rounds, std::vector<double> &Setup,
               const std::function<bool()> &SetUp) {
  std::vector<int> Cpus = allowedCpus();
  size_t N = std::max<size_t>(Cpus.size(), 1);
  bool Ok = true;
  for (int Round = 0; Round < Rounds && Ok; ++Round) {
    double Total = 0;
    for (size_t C = 0; C < N && Ok; ++C) {
      if (!Cpus.empty())
        pinThisThread({Cpus[C]});
      Clock::time_point T0 = Clock::now();
      Ok = SetUp();
      Total += secondsSince(T0);
    }
    Setup.push_back(Total / static_cast<double>(N));
  }
  if (!Cpus.empty())
    pinThisThread(Cpus);
  return Ok;
}

double peakRssMiBSelf() {
  struct rusage U = {};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

HttpReply httpRequest(uint16_t Port, const std::string &Method,
                      const std::string &Target, const std::string &Body) {
  HttpReply Reply;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Reply;
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return Reply;
  }
  std::string Req = Method + " " + Target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (!Body.empty())
    Req += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  Req += "\r\n" + Body;
  for (size_t Off = 0; Off < Req.size();) {
    ssize_t N = ::write(Fd, Req.data() + Off, Req.size() - Off);
    if (N <= 0) {
      ::close(Fd);
      return Reply;
    }
    Off += static_cast<size_t>(N);
  }
  std::string Resp;
  char Buf[4096];
  for (ssize_t N; (N = ::read(Fd, Buf, sizeof(Buf))) > 0;)
    Resp.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  // "HTTP/1.1 202 Accepted\r\n...\r\n\r\n<body>"
  size_t Sp = Resp.find(' ');
  size_t BodyAt = Resp.find("\r\n\r\n");
  if (Sp == std::string::npos || BodyAt == std::string::npos)
    return Reply;
  Reply.Status = std::atoi(Resp.c_str() + Sp + 1);
  Reply.Body = Resp.substr(BodyAt + 4);
  return Reply;
}

bool makeDirs(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::create_directories(Path, Ec);
  return !Ec;
}

void removeTree(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove_all(Path, Ec);
}

bool pathExists(const std::string &Path) {
  std::error_code Ec;
  return std::filesystem::exists(Path, Ec);
}

} // namespace perfbench
