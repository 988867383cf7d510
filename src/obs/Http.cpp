//===- obs/Http.cpp - Minimal Prometheus /metrics endpoint ----------------===//

#include "obs/Http.h"

#include "obs/Export.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace grs;
using namespace grs::obs;

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::publish(std::string Text) {
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  Snapshot = std::move(Text);
}

void MetricsServer::publishJson(std::string Text) {
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  JsonSnapshot = std::move(Text);
}

void MetricsServer::publishTrace(std::string Text) {
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  TraceSnapshot = std::move(Text);
}

void MetricsServer::publishRegistry(const Registry &Reg) {
  // Render outside the lock: the exporters walk the registry, which
  // belongs to the calling thread, and can be arbitrarily large.
  std::string Prom = prometheusText(Reg);
  std::string Json = jsonLines(Reg);
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  Snapshot = std::move(Prom);
  JsonSnapshot = std::move(Json);
}

bool IntervalPublisher::tick(const Registry &Reg) {
  uint64_t Now = now();
  if (Started && Now - LastPublishMs < IntervalMillis)
    return false;
  Started = true;
  LastPublishMs = Now;
  Server.publishRegistry(Reg);
  ++Publishes;
  return true;
}

void IntervalPublisher::force(const Registry &Reg) {
  Started = true;
  LastPublishMs = now();
  Server.publishRegistry(Reg);
  ++Publishes;
}

uint64_t IntervalPublisher::now() const {
  if (Clock)
    return Clock();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool MetricsServer::start(uint16_t Port) {
  if (Running.load())
    return false;
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  int One = 1;
  setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // loopback only
  Addr.sin_port = htons(Port);
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      listen(Fd, 8) != 0) {
    close(Fd);
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    close(Fd);
    return false;
  }
  ListenFd = Fd;
  BoundPort = ntohs(Addr.sin_port);
  StopRequested.store(false);
  Running.store(true);
  Server = std::thread([this] { serveLoop(); });
  return true;
}

void MetricsServer::stop() {
  if (!Running.load())
    return;
  StopRequested.store(true);
  // No shutdown() of the listening socket here: the serve loop polls
  // with a bounded timeout, finishes whatever response it is writing,
  // and drains the accept backlog before returning — a scrape racing
  // this stop gets its bytes instead of a connection reset. A loopback
  // self-connect wakes the poll NOW, so join doesn't wait out the poll
  // interval (the connection lands in the drain pass and is closed).
  int Wake = socket(AF_INET, SOCK_STREAM, 0);
  if (Wake >= 0) {
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(BoundPort);
    connect(Wake, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    close(Wake);
  }
  Server.join();
  close(ListenFd);
  ListenFd = -1;
  BoundPort = 0;
  Running.store(false);
}

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds until \p Deadline, clamped to [0, INT_MAX] for poll().
int millisUntil(Clock::time_point Deadline) {
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  if (Left <= 0)
    return 0;
  return static_cast<int>(std::min<int64_t>(Left, 1'000'000));
}

/// Deadline-bounded full write on a non-blocking socket. \returns false
/// when the peer stopped reading (timeout) or the socket died.
bool writeAllDeadline(int Fd, const char *Data, size_t Size,
                      Clock::time_point Deadline, bool &TimedOut) {
  TimedOut = false;
  while (Size) {
    ssize_t N = write(Fd, Data, Size);
    if (N > 0) {
      Data += N;
      Size -= static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int Left = millisUntil(Deadline);
      if (Left == 0) {
        TimedOut = true;
        return false;
      }
      struct pollfd PFD = {Fd, POLLOUT, 0};
      if (poll(&PFD, 1, Left) < 0 && errno != EINTR)
        return false;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

const char *reasonPhrase(int Status) {
  switch (Status) {
  case 200: return "OK";
  case 201: return "Created";
  case 202: return "Accepted";
  case 204: return "No Content";
  case 400: return "Bad Request";
  case 404: return "Not Found";
  case 405: return "Method Not Allowed";
  case 408: return "Request Timeout";
  case 409: return "Conflict";
  case 413: return "Payload Too Large";
  case 429: return "Too Many Requests";
  case 500: return "Internal Server Error";
  case 503: return "Service Unavailable";
  default:  return "Status";
  }
}

std::string renderResponse(const HttpResponse &R) {
  std::string Out = "HTTP/1.1 " + std::to_string(R.Status) + " " +
                    reasonPhrase(R.Status) + "\r\n";
  Out += "Content-Type: " + R.ContentType + "\r\n";
  for (const auto &H : R.ExtraHeaders)
    Out += H.first + ": " + H.second + "\r\n";
  Out += "Content-Length: " + std::to_string(R.Body.size()) + "\r\n";
  Out += "Connection: close\r\n\r\n";
  Out += R.Body;
  return Out;
}

enum class RecvStatus { Ok, TimedOut, TooLarge, Dead, Malformed };

/// Reads one full request — headers, then exactly Content-Length body
/// bytes — off a non-blocking socket, under one absolute deadline and a
/// hard size cap. A client feeding one byte per poll interval (the
/// slowloris shape) burns exactly ReadTimeoutMillis of the plane's
/// time, never more.
RecvStatus recvRequest(int Fd, HttpRequest &Req) {
  constexpr size_t MaxBytes = MetricsServer::MaxRequestBytes;
  Clock::time_point Deadline =
      Clock::now() +
      std::chrono::milliseconds(MetricsServer::ReadTimeoutMillis);
  std::string Data;
  size_t HeaderEnd = std::string::npos;
  size_t Want = 0; // headers + body, known once headers are complete
  char Buf[4096];
  for (;;) {
    if (HeaderEnd == std::string::npos) {
      HeaderEnd = Data.find("\r\n\r\n");
      if (HeaderEnd != std::string::npos) {
        HeaderEnd += 4;
        // Sole framing header we honor; no chunked uploads here.
        size_t Len = 0;
        size_t Pos = 0;
        while (Pos < HeaderEnd) {
          size_t Eol = Data.find("\r\n", Pos);
          if (Eol == std::string::npos || Eol >= HeaderEnd)
            break;
          std::string Line = Data.substr(Pos, Eol - Pos);
          Pos = Eol + 2;
          size_t Colon = Line.find(':');
          if (Colon == std::string::npos)
            continue;
          std::string Name = Line.substr(0, Colon);
          std::transform(Name.begin(), Name.end(), Name.begin(),
                         [](unsigned char C) { return std::tolower(C); });
          if (Name != "content-length")
            continue;
          size_t V = Colon + 1;
          while (V < Line.size() && Line[V] == ' ')
            ++V;
          // Saturates just past the cap: a length of any number of
          // digits is refused below instead of wrapping to a small one.
          Len = 0;
          for (; V < Line.size() && Line[V] >= '0' && Line[V] <= '9'; ++V)
            Len = std::min(Len * 10 + static_cast<size_t>(Line[V] - '0'),
                           MaxBytes + 1);
        }
        Want = HeaderEnd + Len;
        if (Want > MaxBytes)
          return RecvStatus::TooLarge;
      }
    }
    if (HeaderEnd != std::string::npos && Data.size() >= Want)
      break;
    if (Data.size() >= MaxBytes)
      return RecvStatus::TooLarge;
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Data.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      return HeaderEnd == std::string::npos ? RecvStatus::Dead
                                            : RecvStatus::Malformed;
    if (errno == EINTR)
      continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return RecvStatus::Dead;
    int Left = millisUntil(Deadline);
    if (Left == 0)
      return RecvStatus::TimedOut;
    struct pollfd PFD = {Fd, POLLIN, 0};
    if (poll(&PFD, 1, Left) < 0 && errno != EINTR)
      return RecvStatus::Dead;
  }
  // Request line: METHOD SP TARGET SP VERSION.
  size_t Eol = Data.find("\r\n");
  std::string Line = Data.substr(0, Eol);
  size_t Sp1 = Line.find(' ');
  if (Sp1 == std::string::npos)
    return RecvStatus::Malformed;
  size_t Sp2 = Line.find(' ', Sp1 + 1);
  if (Sp2 == std::string::npos)
    return RecvStatus::Malformed;
  Req.Method = Line.substr(0, Sp1);
  Req.Target = Line.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  Req.Body = Data.substr(HeaderEnd, Want - HeaderEnd);
  if (Req.Method.empty() || Req.Target.empty())
    return RecvStatus::Malformed;
  return RecvStatus::Ok;
}

} // namespace

void MetricsServer::serveClient(int Client) {
  // Non-blocking from the first byte: the deadlines below are the ONLY
  // thing bounding how long this client may hold the serving thread.
  fcntl(Client, F_SETFL, fcntl(Client, F_GETFL, 0) | O_NONBLOCK);

  HttpRequest Req;
  HttpResponse Resp;
  bool Handled = false;
  switch (recvRequest(Client, Req)) {
  case RecvStatus::Ok:
    break;
  case RecvStatus::TimedOut:
    Timeouts.fetch_add(1);
    Resp.Status = 408;
    Resp.Body = "request not received in time\n";
    Handled = true;
    break;
  case RecvStatus::TooLarge:
    Overlarge.fetch_add(1);
    Resp.Status = 413;
    Resp.Body = "request exceeds " + std::to_string(MaxRequestBytes) +
                " bytes\n";
    Handled = true;
    break;
  case RecvStatus::Malformed:
    Resp.Status = 400;
    Resp.Body = "malformed request\n";
    Handled = true;
    break;
  case RecvStatus::Dead:
    shutdown(Client, SHUT_RDWR);
    close(Client);
    return;
  }

  // Control-plane hook first (the sweep service mounts /jobs here),
  // then the built-in read-only endpoints.
  if (!Handled && Handler && Handler(Req, Resp))
    Handled = true;
  if (!Handled && Req.Method != "GET") {
    Resp.Status = 405;
    Resp.Body = "only GET is served here\n";
    Handled = true;
  }
  if (!Handled) {
    const std::string &Target = Req.Target;
    if (Target == "/metrics" || Target == "/") {
      std::lock_guard<std::mutex> Lock(SnapshotMutex);
      Resp.ContentType = "text/plain; version=0.0.4; charset=utf-8";
      Resp.Body = Snapshot;
      Scrapes.fetch_add(1);
    } else if (Target == "/metrics.jsonl") {
      std::lock_guard<std::mutex> Lock(SnapshotMutex);
      Resp.ContentType = "application/jsonlines";
      Resp.Body = JsonSnapshot;
      Scrapes.fetch_add(1);
    } else if (Target == "/trace.json") {
      std::lock_guard<std::mutex> Lock(SnapshotMutex);
      Resp.ContentType = "application/json";
      Resp.Body = TraceSnapshot;
      Scrapes.fetch_add(1);
    } else if (Target == "/healthz") {
      // Liveness, not snapshot state: answering at all means the
      // serving thread is up, which is the whole question. Not counted
      // as a scrape — probes would otherwise swamp the scrape counter.
      Resp.Body = "ok\n";
    } else {
      Resp.Status = 404;
      Resp.Body = "404 not found; valid endpoints: /metrics, "
                  "/metrics.jsonl, /trace.json, /healthz\n";
    }
  }

  std::string Response = renderResponse(Resp);
  Clock::time_point WriteDeadline =
      Clock::now() + std::chrono::milliseconds(WriteTimeoutMillis);
  bool WriteTimedOut = false;
  if (!writeAllDeadline(Client, Response.data(), Response.size(),
                        WriteDeadline, WriteTimedOut) &&
      WriteTimedOut)
    Timeouts.fetch_add(1);
  // shutdown BEFORE close: a forked worker (sweep::PoolHost) may hold a
  // duplicate of this fd from the instant of its fork, and close() alone
  // would leave the connection open — wedging a client that reads to
  // EOF. shutdown() acts on the socket itself, dup'd fds and all.
  shutdown(Client, SHUT_RDWR);
  close(Client);
}

void MetricsServer::serveLoop() {
  while (!StopRequested.load()) {
    struct pollfd PFD;
    PFD.fd = ListenFd;
    PFD.events = POLLIN;
    PFD.revents = 0;
    int PR = poll(&PFD, 1, /*timeout ms=*/200);
    if (PR <= 0)
      continue; // timeout (re-check the stop flag) or EINTR
    int Client = accept(ListenFd, nullptr, nullptr);
    if (Client < 0)
      continue;
    serveClient(Client);
  }
  // Drain: serve whatever connections the kernel already queued on the
  // listen backlog, so a request that raced stop() is answered rather
  // than reset when the socket closes.
  for (;;) {
    struct pollfd PFD;
    PFD.fd = ListenFd;
    PFD.events = POLLIN;
    PFD.revents = 0;
    if (poll(&PFD, 1, /*timeout ms=*/0) <= 0 || !(PFD.revents & POLLIN))
      break;
    int Client = accept(ListenFd, nullptr, nullptr);
    if (Client < 0)
      break;
    serveClient(Client);
  }
}
