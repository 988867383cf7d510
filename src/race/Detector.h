//===- race/Detector.h - Dynamic data race detector -------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic data race detector. Mirrors the Go race detector's
/// ThreadSanitizer runtime (paper §3.1), which "uses a combination of
/// lock-sets [76] and HB [44, 66] based algorithms to report races":
///
///  * Happens-before analysis uses one vector clock per goroutine and
///    FastTrack-style adaptive shadow cells (last-write epoch; last-read
///    epoch promoted to a read vector clock only under concurrent reads).
///  * Lock-set analysis implements the Eraser state machine with interned
///    candidate lock sets, refined separately for read locks (RLock) and
///    write locks (Lock).
///
/// The detector is event-driven: the Go-like runtime (src/rt) feeds it
/// fork/join, acquire/release, channel, and memory-access events. It is
/// deliberately single-threaded — the runtime serializes all goroutines
/// onto one OS thread (see rt/Scheduler.h), so the detector models
/// concurrency without experiencing it.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_RACE_DETECTOR_H
#define GRS_RACE_DETECTOR_H

#include "race/Event.h"
#include "race/Ids.h"
#include "race/LockSet.h"
#include "race/Report.h"
#include "race/Source.h"
#include "race/VectorClock.h"

#include <functional>
#include <string>
#include <vector>

namespace grs {
namespace race {

/// Which algorithm(s) drive race reports.
enum class DetectMode : uint8_t {
  /// Pure happens-before via vector clocks (what the stock Go detector
  /// reports; precise for the observed execution).
  HappensBefore,
  /// Pure Eraser lock-sets ("may include races that may never manifest in
  /// practice", §3.1).
  LockSetOnly,
  /// HB races plus lockset-empty findings not already HB-racy, labelled
  /// with their weaker evidence.
  Hybrid,
};

/// Shadow-state garbage collection policy. MinClock is what Valgrind's
/// DRD calls discarding "ordered segments": state ordered before the
/// component-wise minimum over all live goroutines' clocks can never
/// again participate in a race (every future accessor inherits at least
/// that minimum via fork), so it is reclaimed. GC is verdict-neutral by
/// construction — see DESIGN.md §13 for the safety argument.
enum class GcMode : uint8_t {
  /// Never reclaim (the detector exactly as it behaves with GC compiled
  /// out; the differential battery's baseline).
  Off,
  /// Min-clock reclamation of dominated shadow state (default).
  MinClock,
};

/// Detector construction options.
struct DetectorOptions {
  DetectMode Mode = DetectMode::HappensBefore;
  /// Report at most one race per shadowed address per evidence kind
  /// (the Go detector similarly throttles repeated reports).
  bool ReportOncePerAddress = true;
  /// Hard cap on emitted reports; 0 means unlimited.
  size_t MaxReports = 0;
  /// When false, shadow cells do not retain call chains (cheaper; used by
  /// the overhead ablation benchmark).
  bool KeepChains = true;
  /// When false, disables FastTrack's adaptive representation: no
  /// same-epoch fast paths, and read state is kept as a full vector clock
  /// from the first read. Reports are identical; only cost differs. This
  /// is the "vector clocks are expensive in space and time" ablation.
  bool EpochOptimization = true;
  /// Shadow-state garbage collection policy (see GcMode).
  GcMode Gc = GcMode::MinClock;
  /// Run a full collection every this many counted detector events
  /// (memory accesses + sync ops); 0 disables the periodic sweep, leaving
  /// only the cheap min-clock refresh at finish()/join(). GC never
  /// changes verdicts, so this knob trades peak memory against sweep
  /// overhead only.
  uint64_t GcIntervalEvents = 4096;
};

/// Aggregate counters for the overhead study (§3.5) and ablation benches.
struct DetectorStats {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t SyncOps = 0;
  uint64_t SameEpochFastPath = 0;
  uint64_t ReadSharePromotions = 0;
  uint64_t RacesReported = 0;
  uint64_t ShadowCells = 0;
  /// Eraser shadow-state transitions (Virgin->Exclusive, ->Shared,
  /// ->SharedModified); only the lock-set algorithm drives these.
  uint64_t EraserTransitions = 0;
  /// Reports dropped by the once-per-address / MaxReports throttles —
  /// the §3.3.1 per-run analogue of the pipeline's dedup suppression.
  uint64_t ReportsSuppressed = 0;

  // Shadow-state GC (GcMode::MinClock) and sync-object lifecycle.
  /// Full min-clock collections performed.
  uint64_t GcRuns = 0;
  /// Shadow cells retired into the compact dominated set.
  uint64_t GcCellsRetired = 0;
  /// Vector-clock components freed (dominated read VCs, dead or dominated
  /// sync clocks, trimmed finished-thread clocks).
  uint64_t GcVcWordsReclaimed = 0;
  /// Bytes of call-chain frames freed from dominated shadow state.
  uint64_t GcChainBytesReclaimed = 0;
  /// Sync-object clocks emptied (destroyed objects plus live clocks fully
  /// dominated by the min clock).
  uint64_t GcSyncClocksFreed = 0;
  /// Finished goroutines whose clock + chain were trimmed after their
  /// join edge was consumed (clock dominated by the min clock).
  uint64_t GcThreadsTrimmed = 0;
  /// destroySyncVar() notifications accepted.
  uint64_t SyncVarsDestroyed = 0;
  /// newSyncVar() allocations satisfied from the destroy free list.
  uint64_t SyncIdsReused = 0;
  /// Sync operations referencing an already-destroyed sync object
  /// (benignly ignored; nonzero means the program under test used a
  /// sync object after its owner destroyed it).
  uint64_t DeadSyncOps = 0;
};

/// Shadow-memory footprint: how much state the detector is holding RIGHT
/// NOW, in the units the FastTrack cost model is priced in (§3.5's
/// "significant memory overheads to maintain vector clocks"). Computed by
/// Detector::footprint() as a walk over live state — a gauge, where
/// DetectorStats carries monotone counters.
struct ShadowFootprint {
  /// Live shadow cells (one per instrumented address ever touched).
  uint64_t ShadowCells = 0;
  /// Allocated vector-clock components, summed over goroutine clocks,
  /// sync-object clocks, and promoted read vector clocks. The number the
  /// EpochOptimization ablation exists to shrink.
  uint64_t VcWords = 0;
  /// Bytes of retained call-chain frames: per-cell write/read/shared
  /// chains plus the live per-goroutine stacks. 0 when KeepChains=false.
  uint64_t ChainBytes = 0;

  /// Shadow-table slots of retired (fully dominated) cells that hold no
  /// live cell, only a residue: the ReportOnce flags, ReadShared and the
  /// variable name, so a re-access rebuilds the cell deterministically.
  uint64_t RetiredCells = 0;
  /// Monotone high-water marks of the live numbers above. The detector
  /// samples live state into these before every collection, so a gauge
  /// scrape that straddles a GC cycle still sees the pre-GC peak — this
  /// is what keeps the obs `grs_detector_shadow_*_peak` gauges monotone.
  uint64_t PeakShadowCells = 0;
  uint64_t PeakVcWords = 0;
  uint64_t PeakChainBytes = 0;
  /// Reclaimed-to-date counters (mirrors DetectorStats): live + reclaimed
  /// is the GC-off footprint the detector WOULD be holding.
  uint64_t ReclaimedCells = 0;
  uint64_t ReclaimedVcWords = 0;
  uint64_t ReclaimedChainBytes = 0;
};

/// The dynamic race detector. See file comment.
class Detector {
public:
  using ReportSink = std::function<void(const RaceReport &)>;

  explicit Detector(DetectorOptions Opts = DetectorOptions());
  ~Detector();

  Detector(const Detector &) = delete;
  Detector &operator=(const Detector &) = delete;

  /// Starts over under \p Opts, keeping storage: afterwards every
  /// observable equals that of Detector(Opts) — stats(), footprint(),
  /// reports(), goroutine, sync and lock-set ids, sync generations,
  /// lockSets().stats(), minClock(), hasShadow() and clockOf() — while
  /// goroutine clocks and chains, sync clocks and names, shadow slots and
  /// cells, the lock-set table and the report vector keep their capacity
  /// for the next run (rt's per-thread run arena, DESIGN.md §17). The
  /// report sink and event observer are detached. Costs what the last
  /// run used, not the capacity kept.
  ///
  /// The one exception is the interner: it keeps its strings, so a name
  /// seen in an earlier run keeps its id and text() of an old id stays
  /// valid. Nothing compares ids across runs — fingerprints, reports and
  /// traces use the text — so no output changes. Past MaxKeptNames
  /// strings it starts empty, and past MaxKeptSlots any other container
  /// does, so one outsized run does not pin its storage for good.
  void reset(DetectorOptions Opts);

  /// The bounds reset() keeps storage under (see reset()).
  static constexpr size_t MaxKeptNames = 1 << 12;
  static constexpr size_t MaxKeptSlots = 1 << 16;

  //===------------------------------------------------------------------===//
  // Goroutine lifecycle
  //===------------------------------------------------------------------===//

  /// Registers a new root goroutine with no happens-before predecessor
  /// (used for goroutine 0 / main).
  Tid newRootGoroutine();

  /// Registers a goroutine forked by \p Parent: the `go` statement
  /// happens-before the child's first action.
  Tid fork(Tid Parent);

  /// Records that \p T finished; its final clock becomes joinable.
  void finish(Tid T);

  /// Establishes finished-\p Target happens-before the next action of
  /// \p Waiter (e.g. channel-signalled join or WaitGroup wait).
  void join(Tid Waiter, Tid Target);

  /// Number of goroutines ever registered.
  size_t numGoroutines() const;

  //===------------------------------------------------------------------===//
  // Synchronization events
  //===------------------------------------------------------------------===//

  /// Allocates a fresh synchronization object (its clock starts empty).
  /// \p Name is used in diagnostics only.
  SyncId newSyncVar(const std::string &Name = std::string());

  /// Acquire edge: joins the sync object's clock into \p T's clock.
  void acquire(Tid T, SyncId S);

  /// Release edge (store semantics): the sync object's clock becomes a
  /// copy of \p T's clock. Use for plain mutex unlock.
  void release(Tid T, SyncId S);

  /// Release edge (merge semantics): the sync object's clock joins with
  /// \p T's clock. Use when several goroutines release concurrently and
  /// all must happen-before the next acquirer (WaitGroup.Done, channel
  /// send, RUnlock).
  void releaseMerge(Tid T, SyncId S);

  /// Joins sync var \p From's clock into \p To without involving any
  /// goroutine — used when buffered channel machinery moves a parked
  /// sender's publication into a buffer slot on its behalf.
  void transferSync(SyncId From, SyncId To);

  /// Declares sync object \p S dead: the runtime calls this when the
  /// owning channel/mutex/WaitGroup is destroyed, with \p T the goroutine
  /// running the destructor. The slot's clock is freed immediately and
  /// its generation bumped; ids never passed to lockAcquired() become
  /// reusable by newSyncVar() (locked ids are NOT reused so a stale id in
  /// an Eraser candidate set can never alias a new lock). Destroying an
  /// already-dead or unknown id is a benign no-op. Independent of GcMode,
  /// so a captured trace replays identically under either GC setting.
  void destroySyncVar(Tid T, SyncId S);

  /// \returns true if \p S names a currently-live sync object.
  bool syncVarLive(SyncId S) const;

  /// \returns the generation of slot \p S (bumped by each destroy).
  SyncGeneration syncVarGeneration(SyncId S) const;

  /// Number of sync-object slots ever allocated (free-list reuse keeps
  /// this below the newSyncVar() call count).
  size_t numSyncVarSlots() const { return SyncAlive.size(); }

  /// Mutex bookkeeping for the lock-set algorithm. \p WriteMode is true
  /// for Lock/Unlock and false for RLock/RUnlock. These do NOT create HB
  /// edges by themselves; the runtime pairs them with acquire()/release*().
  void lockAcquired(Tid T, SyncId S, bool WriteMode);
  void lockReleased(Tid T, SyncId S, bool WriteMode);

  /// \returns the set of (write-mode) locks currently held by \p T.
  LockSetId heldWriteLocks(Tid T) const;
  /// \returns all locks (read- or write-mode) currently held by \p T.
  LockSetId heldAllLocks(Tid T) const;

  //===------------------------------------------------------------------===//
  // Call-chain maintenance
  //===------------------------------------------------------------------===//

  /// Builds an interned frame.
  Frame makeFrame(const std::string &Function, const std::string &File,
                  uint32_t Line);

  /// Pushes/pops \p T's current call chain (root first).
  void pushFrame(Tid T, const Frame &F);
  void popFrame(Tid T);

  /// Updates the line number of \p T's innermost frame (statement-level
  /// positions inside one function).
  void setLine(Tid T, uint32_t Line);

  const CallChain &currentChain(Tid T) const;

  //===------------------------------------------------------------------===//
  // Memory accesses
  //===------------------------------------------------------------------===//

  /// Instrumented read of \p A by \p T. \p Name optionally labels the
  /// object for reports: an id from interner(), interned once by the
  /// caller (rt objects do it when they are constructed), so an access
  /// builds no string. \returns true if a race was reported.
  bool onRead(Tid T, Addr A, StrId Name = NoName);

  /// Instrumented write; see onRead().
  bool onWrite(Tid T, Addr A, StrId Name = NoName);

  //===------------------------------------------------------------------===//
  // Results
  //===------------------------------------------------------------------===//

  /// Installs a callback invoked at each report, in addition to the
  /// internal report list.
  void setReportSink(ReportSink Sink) { Sink_ = std::move(Sink); }

  //===------------------------------------------------------------------===//
  // Event stream (trace capture)
  //===------------------------------------------------------------------===//

  /// Installs an observer that sees every detector event (see
  /// race/Event.h) immediately before it is applied; pass nullptr to
  /// detach. The observer is borrowed and must outlive its installation.
  /// Replaying the observed sequence into a fresh Detector with the same
  /// DetectorOptions reproduces this detector's verdicts exactly.
  void setEventObserver(EventObserver *Observer) { Observer_ = Observer; }
  EventObserver *eventObserver() const { return Observer_; }

  /// Forwards a pure annotation event (channel ops, atomic ops) to the
  /// observer. No detector state changes; no-op when no observer is
  /// installed. \p Name is borrowed for the duration of the call.
  void annotate(EventKind Kind, Tid T, uint64_t A, bool Flag = false,
                const std::string *Name = nullptr);

  const std::vector<RaceReport> &reports() const { return Reports; }
  const DetectorStats &stats() const { return Stats; }

  /// Current shadow-memory footprint (walks live state; O(cells +
  /// goroutines + sync vars), so sample at serial points, not per access).
  ShadowFootprint footprint() const;

  StringInterner &interner() { return Interner; }
  const StringInterner &interner() const { return Interner; }

  LockSetRegistry &lockSets() { return LockSets; }
  const LockSetRegistry &lockSets() const { return LockSets; }

  /// Direct read of \p T's vector clock (tests and diagnostics).
  const VectorClock &clockOf(Tid T) const;

  /// \returns true if the detector has a shadow cell for \p A; primarily
  /// for tests.
  bool hasShadow(Addr A) const;

  //===------------------------------------------------------------------===//
  // Shadow-state garbage collection
  //===------------------------------------------------------------------===//

  /// Forces a full collection right now (tests and benches; the detector
  /// otherwise collects every GcIntervalEvents events). No-op when
  /// Opts.Gc == GcMode::Off. GC is verdict-neutral, so forcing it at any
  /// point never changes subsequent reports.
  void gcNow();

  /// The maintained component-wise minimum over live goroutines' clocks
  /// (empty = nothing provably dominated yet); tests and diagnostics.
  const VectorClock &minClock() const { return MinClock; }

private:
  struct ThreadState;
  struct ShadowCell;

  enum class SlotState : uint8_t { Empty, Live, Retired };

  /// One entry of the open-addressed shadow table: an address with a live
  /// cell, or a retired address whose residue a rebuild restores. A live
  /// cell keeps its flags itself; the slot holds them while it is retired.
  struct ShadowSlot {
    Addr A = 0;
    /// The live cell's index in Cells. While retired, the index the cell
    /// had: a rebuild takes that cell back if it is still free.
    uint32_t Cell = NoCell;
    /// The variable name: the first non-empty name an access passed.
    StrId Name = NoName;
    SlotState State = SlotState::Empty;
    bool ReadShared = false;
    bool ReportedHb = false;
    bool ReportedLs = false;
  };
  static constexpr uint32_t NoCell = ~static_cast<uint32_t>(0);

  ThreadState &thread(Tid T);
  const ThreadState &thread(Tid T) const;

  /// The slot of \p A with a live cell, inserting or rebuilding it. The
  /// slot keeps the first non-empty \p Name any access passed.
  ShadowSlot &shadowSlot(Addr A, StrId Name);
  /// The index of \p A's slot, live or retired, or SIZE_MAX.
  size_t findSlot(Addr A) const;
  size_t slotHome(Addr A) const;
  void growSlots();
  void eraseSlot(size_t Hole);
  /// A free cell for an address, preferring \p Hint, the cell the address
  /// had before it retired: its chains already have the capacity it needs.
  uint32_t takeCell(uint32_t Hint);
  void releaseCell(uint32_t Index);
  void swapOrder(uint32_t P, uint32_t Q);

  /// Allocates the thread-state slot shared by newRootGoroutine() and
  /// fork() (so each emits exactly one event for the allocation).
  Tid allocThread();
  void observe(EventKind Kind, Tid T, uint64_t A = 0, uint64_t B = 0,
               bool Flag = false, const std::string *Str1 = nullptr,
               const std::string *Str2 = nullptr);

  void emitReport(RaceReport Report, ShadowCell &Cell);
  RaceReport newReport(Addr A, StrId Name, RaceEvidence Evidence) const;
  bool checkHbRead(Tid T, Addr A, StrId Name, ShadowCell &Cell);
  bool checkHbWrite(Tid T, Addr A, StrId Name, ShadowCell &Cell);
  bool applyEraser(Tid T, Addr A, StrId Name, AccessKind Kind,
                   ShadowCell &Cell);
  void snapshotInto(AccessSnapshot &Snapshot, Tid T, AccessKind Kind) const;
  AccessSnapshot snapshotCurrent(Tid T, AccessKind Kind) const;

  // Min-clock GC internals (Detector.cpp has the per-step safety
  // argument; DESIGN.md §13 the full one).
  void countEvent();
  void maybeRefreshMinClock();
  void refreshMinClock();
  void trimDominatedThreads();
  void sweepSyncClocks();
  void sweepShadow();
  void notePeaks();
  bool epochDominated(const Epoch &E) const {
    return E.valid() && MinClock.covers(E);
  }

  DetectorOptions Opts;
  /// Goroutine states; those past NumThreads are kept from an earlier run
  /// (reset()) for their storage.
  std::vector<ThreadState> Threads;
  Tid NumThreads = 0;
  /// Sync clocks and names, indexed by SyncId. Those past
  /// SyncAlive.size() are kept from an earlier run for their storage.
  std::vector<VectorClock> SyncClocks;
  std::vector<std::string> SyncNames;
  /// The shadow table: a power-of-two array probed linearly from a
  /// multiplicative hash of the address, empty until the first access.
  std::vector<ShadowSlot> Slots;
  /// 64 - log2(Slots.size()): slotHome() keeps the hash's top bits.
  unsigned SlotShift = 0;
  /// Slots in use: live cells plus retired residues.
  size_t UsedSlots = 0;
  /// The slots filled since the table last grew or was reset, so reset()
  /// clears only those. Past an eighth of the table the list stops and
  /// AllSlotsTouched makes reset() clear the whole table, which then costs
  /// at most eight slots per fill.
  std::vector<uint32_t> TouchedSlots;
  bool AllSlotsTouched = false;
  /// Cell storage, dense. A retired cell is reset and kept for reuse, so
  /// the cells never outnumber the peak live count.
  std::vector<ShadowCell> Cells;
  /// Every index into Cells, the live ones first: CellOrder[0, LiveCells)
  /// are live and the rest free, so sweeps and footprint() walk only the
  /// live cells.
  std::vector<uint32_t> CellOrder;
  uint32_t LiveCells = 0;
  LockSetRegistry LockSets;
  StringInterner Interner;
  std::vector<RaceReport> Reports;
  ReportSink Sink_;
  EventObserver *Observer_ = nullptr;
  DetectorStats Stats;

  // Sync-object lifecycle (active in every GcMode so traces replay
  // identically across GC settings). SyncAlive.size() is the number of
  // sync slots in use.
  std::vector<uint8_t> SyncAlive;
  std::vector<uint8_t> SyncEverLocked;
  std::vector<SyncGeneration> SyncGen;
  std::vector<SyncId> SyncFree;

  // Min-clock GC state (GcMode::MinClock only). The two id lists are
  // maintained in every mode (a push/pop per lifecycle event) so the
  // refresh and trim walks touch only live or recently-finished
  // goroutines instead of every ThreadState ever created.
  std::vector<Tid> LiveThreads;
  std::vector<Tid> UntrimmedFinished;
  VectorClock MinClock;
  uint64_t EventsSinceGc = 0;
  /// Counted events since the last min-clock refresh; gates the eager
  /// finish/join refresh so fork/join loops stay linear.
  uint64_t EventsSinceRefresh = 0;
  /// High-water marks of the live footprint, sampled before each
  /// collection and lazily max-merged in footprint().
  mutable uint64_t PeakCells = 0, PeakVcWords = 0, PeakChainBytes = 0;
};

} // namespace race
} // namespace grs

#endif // GRS_RACE_DETECTOR_H
