//===- obs/Http.h - Minimal Prometheus /metrics endpoint --------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free HTTP server for the Prometheus text exposition
/// (obs/Export.h): one blocking-socket thread, loopback only, so a real
/// Prometheus can scrape a long-running sweep — e.g. sweep::pooled
/// grinding a multi-hour fleet — instead of waiting for the end-of-run
/// snapshot dump.
///
/// Threading model: obs::Registry is single-threaded by design, so the
/// serving thread NEVER touches a registry. The owner of the registry
/// calls publish()/publishRegistry() at its own serial points (round
/// barriers, day boundaries); the server hands out the most recently
/// published snapshot under a mutex. A scrape therefore observes a
/// consistent snapshot that may be one publish interval stale — exactly
/// Prometheus's own sampling model.
///
/// Protocol support is deliberately minimal: any request whose target is
/// `/metrics` (or `/`) gets `200 text/plain; version=0.0.4` with the
/// snapshot, `/metrics.jsonl` gets the JSON-lines snapshot (the same
/// diffable rendering CI uploads as a build artifact, for tooling that
/// would rather not parse the exposition format), `/trace.json` gets the
/// most recently published flight-recorder export (obs/Timeline.h's
/// Chrome trace JSON — point chrome://tracing or Perfetto at the URL),
/// and `/healthz` answers 200 "ok" while the serving thread is alive (a
/// liveness probe that works even before the first publish). Anything
/// else gets a 404 whose body lists the valid endpoints. Connections are
/// `Connection: close` one-shots — scrape traffic, not serving traffic.
///
/// Shutdown drains: stop() signals the serving thread and then lets it
/// finish the in-flight response and accept whatever already sits in the
/// listen backlog before joining — a scrape racing shutdown gets its
/// bytes, not a connection reset.
///
/// Control-plane hosting: a handler installed with setHandler() (before
/// start()) sees every parsed request FIRST and may claim it — the sweep
/// service (svc/Service.h) mounts its /jobs API this way without owning
/// sockets. Requests are parsed properly for that purpose: method,
/// target, headers, and a Content-Length-delimited body. The parser is
/// hardened against rude clients, because one serving thread means one
/// slowloris holds the whole plane hostage: a connection that has not
/// delivered its complete request within MetricsServer::ReadTimeoutMillis
/// is answered 408 and dropped, one that will not accept response bytes
/// within WriteTimeoutMillis is dropped mid-write, and one whose request
/// (headers + declared body) exceeds MaxRequestBytes is answered 413
/// without ever buffering the excess. A declared Content-Length is
/// parsed saturating, so no length, however many digits it has, wraps
/// past the cap.
///
/// IntervalPublisher wraps the owner-driven publish cadence: the owner
/// calls tick(Reg) at its natural serial points (per seed, per round)
/// and the helper re-renders only when the configured interval elapsed,
/// so publish cost stays amortized no matter how hot the loop is.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_OBS_HTTP_H
#define GRS_OBS_HTTP_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace grs {
namespace obs {

class Registry;

/// One parsed request, as a handler sees it.
struct HttpRequest {
  std::string Method; ///< uppercase as sent: "GET", "POST", ...
  std::string Target; ///< raw request target, query string included
  std::string Body;   ///< exactly Content-Length bytes ("" when absent)
};

/// What a handler fills in. Reason phrases for the usual statuses are
/// supplied by the server; ExtraHeaders is for the occasional
/// Retry-After, not for overriding the framing headers (Content-Length
/// and Connection: close are always the server's).
struct HttpResponse {
  int Status = 200;
  std::string ContentType = "text/plain; charset=utf-8";
  std::string Body;
  std::vector<std::pair<std::string, std::string>> ExtraHeaders;
};

/// First-look request hook. Runs ON the serving thread — block here and
/// nothing else is served. Return true to claim the request (the filled
/// response is sent); false falls through to the built-in endpoints.
using HttpHandler = std::function<bool(const HttpRequest &, HttpResponse &)>;

class MetricsServer {
public:
  /// Per-connection hardening (see file comment). The full request
  /// (headers + body) must arrive within this; else 408.
  static constexpr uint64_t ReadTimeoutMillis = 5'000;
  /// Response bytes must drain within this; else the socket is dropped.
  static constexpr uint64_t WriteTimeoutMillis = 5'000;
  /// Hard cap on headers + declared body; else 413.
  static constexpr uint64_t MaxRequestBytes = 1 << 20;

  MetricsServer() = default;
  ~MetricsServer();

  MetricsServer(const MetricsServer &) = delete;
  MetricsServer &operator=(const MetricsServer &) = delete;

  /// Binds 127.0.0.1:\p Port (0 picks an ephemeral port, see port()) and
  /// starts the serving thread. \returns false when the bind fails or
  /// the platform has no sockets; the process runs on unobserved either
  /// way — metrics serving must never be load-bearing.
  bool start(uint16_t Port = 0);

  /// Stops the serving thread and closes the socket. Idempotent; also
  /// run by the destructor.
  void stop();

  bool running() const { return Running.load(); }

  /// The bound port (useful with start(0)); 0 when not running.
  uint16_t port() const { return BoundPort; }

  /// Publishes \p Text as the snapshot subsequent /metrics scrapes
  /// receive. Thread-safe against the serving thread and other
  /// publishers.
  void publish(std::string Text);

  /// Publishes \p Text as the snapshot /metrics.jsonl serves.
  void publishJson(std::string Text);

  /// Publishes \p Text as the document /trace.json serves — by contract
  /// a Chrome trace-event JSON export (Timeline::chromeTraceJson()).
  /// Until the first publish the endpoint serves an empty-but-valid
  /// `{"traceEvents":[]}` document.
  void publishTrace(std::string Text);

  /// Renders BOTH formats of \p Reg — prometheusText for /metrics and
  /// jsonLines for /metrics.jsonl — and publishes them atomically
  /// enough that each endpoint is individually consistent. Call from
  /// the thread that owns \p Reg (Registry is not thread-safe); the
  /// renders happen on the caller's thread, only the hand-off is
  /// locked.
  void publishRegistry(const Registry &Reg);

  /// Scrapes served so far across both endpoints (tests / diagnostics).
  uint64_t scrapeCount() const { return Scrapes.load(); }

  /// Installs the control-plane hook. Call BEFORE start(): the serving
  /// thread reads it unlocked.
  void setHandler(HttpHandler H) { Handler = std::move(H); }

  /// Connections dropped for blowing ReadTimeoutMillis (slowloris) or
  /// WriteTimeoutMillis (unread response).
  uint64_t timeoutCount() const { return Timeouts.load(); }

  /// Requests refused with 413 for exceeding MaxRequestBytes.
  uint64_t overlargeCount() const { return Overlarge.load(); }

private:
  void serveLoop();
  void serveClient(int Client);

  std::thread Server;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopRequested{false};
  std::atomic<uint64_t> Scrapes{0};
  std::atomic<uint64_t> Timeouts{0};
  std::atomic<uint64_t> Overlarge{0};
  HttpHandler Handler;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::mutex SnapshotMutex;
  std::string Snapshot;
  std::string JsonSnapshot;
  std::string TraceSnapshot = "{\"traceEvents\":[]}";
};

/// Owner-driven publish-on-interval helper. The registry owner calls
/// tick(Reg) wherever convenient — every seed, every round — and the
/// helper republishes to the server only when IntervalMillis elapsed
/// since the last publish, so rendering cost is bounded by the interval
/// rather than the call rate. Time is injectable for determinism: tests
/// (and deterministic hosts) supply a fake clock via setClock and the
/// helper never consults the wall clock.
class IntervalPublisher {
public:
  IntervalPublisher(MetricsServer &Server, uint64_t IntervalMillis)
      : Server(Server), IntervalMillis(IntervalMillis) {}

  /// Replaces the time source (milliseconds, monotone). The default is
  /// std::chrono::steady_clock.
  void setClock(std::function<uint64_t()> Clock) {
    this->Clock = std::move(Clock);
  }

  /// Publishes \p Reg if at least the interval passed since the last
  /// publish (the first tick always publishes). \returns true when a
  /// publish happened.
  bool tick(const Registry &Reg);

  /// Unconditionally publishes \p Reg and resets the interval.
  void force(const Registry &Reg);

  /// Publishes performed so far.
  uint64_t publishCount() const { return Publishes; }

private:
  uint64_t now() const;

  MetricsServer &Server;
  uint64_t IntervalMillis;
  std::function<uint64_t()> Clock;
  bool Started = false;
  uint64_t LastPublishMs = 0;
  uint64_t Publishes = 0;
};

} // namespace obs
} // namespace grs

#endif // GRS_OBS_HTTP_H
