//===- obs/Timeline.h - Flight-recorder execution timelines -----*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's flight recorder: per-track ring buffers of structured
/// events (span begin/end, instants, counter samples) answering the
/// question aggregate instruments cannot — "which slot/worker/phase was
/// running WHEN". The paper's deployment (§3) was operated by watching
/// it run; obs/Metrics.h gives the totals, this gives the timeline.
///
/// Design contract (see DESIGN.md §12):
///
///  * A Timeline constructed disabled hands out nullptr tracks, and the
///    `obs::tlBegin`/`tlEnd`/`tlInstant`/`tlCounter` helpers (plus the
///    RAII TimelineScope) reduce to one predictable branch — the same
///    zero-overhead-when-disabled contract as obs::Registry, gated by
///    `bench_gates` (a disabled timeline costs at most +10%).
///  * Recording NEVER consumes scheduler or fault-injection RNG and never
///    perturbs a schedule: a run with tracing enabled is bit-identical
///    (fingerprints, checkpoint journals) to the same run without it.
///  * Each track is single-producer: one worker/supervisor/child owns its
///    track and records without synchronization. Track creation and
///    cross-process adoption are mutex-guarded, so handing tracks out to
///    a worker pool is safe.
///  * Tracks are bounded rings (flight-recorder semantics): when full,
///    the oldest events are overwritten and counted as dropped rather
///    than growing without bound on a six-month sweep.
///  * The clock is injectable (shared by all tracks; must be monotone and
///    thread-safe) so exported traces are bit-reproducible in tests.
///
/// Export targets: Chrome trace-event JSON (load the file in
/// chrome://tracing or https://ui.perfetto.dev) and a compact terminal
/// summary. For `sweep::pooled`, worker-side events cross the worker's
/// socket as kind-tagged frames (sweep/Checkpoint.h FrameKind) encoded by
/// encodeTrackChunk() and are stitched into the parent timeline with
/// pid/slot attribution by adoptTrackChunk().
///
//===----------------------------------------------------------------------===//

#ifndef GRS_OBS_TIMELINE_H
#define GRS_OBS_TIMELINE_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace grs {
namespace obs {

/// Event kinds, mapping 1:1 onto Chrome trace-event phases
/// (B / E / i / C).
enum class TimelineEventKind : uint8_t {
  SpanBegin = 0,
  SpanEnd = 1,
  Instant = 2,
  Counter = 3,
};

/// One recorded event. Strings are interned per track (NameId/ArgsId
/// index the track's string table); Args is a pre-rendered JSON object
/// fragment (`"slot":3,"seed":7`) pasted verbatim into the export's
/// `"args":{...}`.
struct TimelineEvent {
  TimelineEventKind Kind = TimelineEventKind::Instant;
  uint64_t TsNs = 0;
  uint32_t NameId = 0;
  uint32_t ArgsId = 0; ///< 0 = no args (id 0 is always "").
  double Value = 0.0;  ///< Counter samples only.
};

class Timeline;

/// One lane of the timeline: a bounded ring of events owned by exactly
/// one producer (a sweep worker, a supervisor thread, a forked child).
/// Obtained from Timeline::track(); never null-checked by callers — the
/// null-safe helpers below do that.
class TimelineTrack {
public:
  /// Opens a span. Spans nest; end() closes the innermost open one.
  void begin(const std::string &Name, const std::string &Args = "");
  /// Closes the innermost open span (no-op when none is open).
  void end();
  /// A point event.
  void instant(const std::string &Name, const std::string &Args = "");
  /// A counter sample (exported as a Chrome "C" event).
  void counter(const std::string &Name, double Value);

  const std::string &name() const { return TrackName; }
  uint32_t pid() const { return Pid; }
  uint32_t tid() const { return Tid; }

  /// Events recorded over the track's lifetime, including dropped ones.
  uint64_t totalEvents() const { return Total; }
  /// Events overwritten by the ring (flight-recorder loss).
  uint64_t droppedEvents() const { return Total > Retained ? Total - Retained
                                                           : 0; }
  /// Retained events, oldest first.
  size_t size() const { return static_cast<size_t>(Retained); }
  const TimelineEvent &event(size_t I) const;
  const std::string &str(uint32_t Id) const { return Strings[Id]; }

private:
  friend class Timeline;
  TimelineTrack(Timeline *Owner, std::string Name, uint32_t Pid, uint32_t Tid,
                size_t Capacity);

  void record(TimelineEventKind Kind, uint32_t NameId, uint32_t ArgsId,
              double Value, uint64_t TsNs);
  uint32_t intern(const std::string &S);
  /// Appends an already-timestamped event (cross-process adoption; never
  /// reads the clock).
  void import(TimelineEventKind Kind, uint64_t TsNs, const std::string &Name,
              const std::string &Args, double Value);

  Timeline *Owner;
  std::string TrackName;
  uint32_t Pid;
  uint32_t Tid;
  size_t Capacity;
  std::vector<TimelineEvent> Ring;
  uint64_t Total = 0;    ///< Events ever recorded.
  uint64_t Retained = 0; ///< Events currently in the ring.
  uint64_t Flushed = 0;  ///< Chunk cursor: events already encoded.
  uint64_t ImportedDropped = 0; ///< Dropped-before-arrival (adopted tracks).
  std::vector<std::string> Strings{""};
  std::map<std::string, uint32_t> StringIds;
  std::vector<uint32_t> OpenSpans; ///< NameIds of open begins.
};

/// The flight recorder. Owns its tracks; returned pointers are stable
/// for the timeline's lifetime. Constructed disabled, every track() call
/// returns nullptr and all recording collapses to null checks.
class Timeline {
public:
  struct Options {
    bool Enabled = true;
    /// Ring capacity per track, in events.
    size_t TrackCapacity = 1 << 16;
  };

  explicit Timeline(bool Enabled = true);
  explicit Timeline(Options Opts);

  Timeline(const Timeline &) = delete;
  Timeline &operator=(const Timeline &) = delete;

  bool enabled() const { return Opts.Enabled; }

  /// Replaces the event clock (nanoseconds; must be monotone and safe to
  /// call from any recording thread). Default: std::chrono::steady_clock.
  /// Tests inject a counter so exports are bit-reproducible.
  void setClock(std::function<uint64_t()> Clock);

  /// Finds or creates the track named \p Name under process \p Pid
  /// (0 = this process in the export). nullptr when disabled. Safe to
  /// call from any thread; the returned track must then be used by one
  /// producer only.
  TimelineTrack *track(const std::string &Name, uint32_t Pid = 0);

  /// Track enumeration, creation order (export / tests).
  size_t numTracks() const;
  const TimelineTrack &trackAt(size_t I) const;
  /// Sum of droppedEvents() over all tracks.
  uint64_t droppedTotal() const;

  //===------------------------------------------------------------------===//
  // Export
  //===------------------------------------------------------------------===//

  /// The whole recording as Chrome trace-event JSON — one
  /// `{"traceEvents":[...]}` document loadable in chrome://tracing and
  /// Perfetto. Deterministic under a deterministic clock.
  std::string chromeTraceJson() const;

  /// Compact terminal summary: per track, event counts and a per-span
  /// duration profile.
  void renderSummary(std::ostream &OS) const;

  //===------------------------------------------------------------------===//
  // Cross-process stitching (sweep::pooled)
  //===------------------------------------------------------------------===//

  /// Appends \p Track's events since the last flush to \p Out as a
  /// self-contained chunk (strings inline, timestamps preserved) and
  /// advances the track's flush cursor. Used by a pool worker to
  /// forward its recording through its socket.
  static void encodeTrackChunk(std::vector<uint8_t> &Out,
                               TimelineTrack &Track);

  /// Decodes one chunk at \p Pos and stitches it into this timeline as
  /// (or appended to) the track named `\p TrackPrefix + <chunk name>`
  /// with process id \p Pid — the parent-side half of child forwarding.
  /// Never reads the clock. \returns false (position unchanged) on a
  /// malformed chunk.
  bool adoptTrackChunk(const uint8_t *Data, size_t Size, size_t &Pos,
                       uint32_t Pid, const std::string &TrackPrefix);

private:
  friend class TimelineTrack;
  uint64_t now() const { return Clock(); }

  Options Opts;
  std::function<uint64_t()> Clock;
  mutable std::mutex TracksMutex;
  std::vector<std::unique_ptr<TimelineTrack>> Tracks;
};

//===----------------------------------------------------------------------===//
// Null-safe helpers: the recording idiom. Every call on a nullptr track
// (disabled or absent timeline) is a single predictable branch and never
// reads the clock.
//===----------------------------------------------------------------------===//

inline void tlBegin(TimelineTrack *T, const std::string &Name,
                    const std::string &Args = "") {
  if (T)
    T->begin(Name, Args);
}

inline void tlEnd(TimelineTrack *T) {
  if (T)
    T->end();
}

inline void tlInstant(TimelineTrack *T, const std::string &Name,
                      const std::string &Args = "") {
  if (T)
    T->instant(Name, Args);
}

inline void tlCounter(TimelineTrack *T, const std::string &Name,
                      double Value) {
  if (T)
    T->counter(Name, Value);
}

/// RAII span: begin at construction, end at destruction (or an explicit
/// end()). A TimelineScope over a nullptr track is a complete no-op.
class TimelineScope {
public:
  TimelineScope() = default;
  TimelineScope(TimelineTrack *T, const std::string &Name,
                const std::string &Args = "")
      : T(T) {
    if (T)
      T->begin(Name, Args);
  }
  TimelineScope(TimelineScope &&Other) noexcept : T(Other.T) {
    Other.T = nullptr;
  }
  TimelineScope &operator=(TimelineScope &&Other) noexcept {
    if (this != &Other) {
      end();
      T = Other.T;
      Other.T = nullptr;
    }
    return *this;
  }
  TimelineScope(const TimelineScope &) = delete;
  TimelineScope &operator=(const TimelineScope &) = delete;
  ~TimelineScope() { end(); }

  void end() {
    if (T) {
      T->end();
      T = nullptr;
    }
  }

private:
  TimelineTrack *T = nullptr;
};

} // namespace obs
} // namespace grs

#endif // GRS_OBS_TIMELINE_H
