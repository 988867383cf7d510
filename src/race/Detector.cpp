//===- race/Detector.cpp - Dynamic data race detector ---------------------===//

#include "race/Detector.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <unordered_map>

using namespace grs::race;

//===----------------------------------------------------------------------===//
// Internal state
//===----------------------------------------------------------------------===//

struct Detector::ThreadState {
  VectorClock C;
  CallChain Chain;
  LockSetId HeldWrite = LockSetRegistry::EmptyId;
  LockSetId HeldAll = LockSetRegistry::EmptyId;
  bool Finished = false;
  /// Finished AND clock dominated by the min clock: clock and chain
  /// storage released (every live thread already covers the clock, so a
  /// join from it is a guaranteed no-op).
  bool Trimmed = false;

  /// Back to the default state, keeping the clock's and chain's capacity.
  void reset() {
    C.clear();
    Chain.clear();
    HeldWrite = HeldAll = LockSetRegistry::EmptyId;
    Finished = Trimmed = false;
  }
};

struct Detector::ShadowCell {
  // FastTrack happens-before state.
  Epoch WriteEpoch;
  Epoch ReadEpoch;
  bool ReadShared = false;

  // Report throttling (the name lives in the cell's ShadowSlot).
  bool ReportedHb = false;
  bool ReportedLs = false;

  // Eraser lock-set state.
  EraserState State = EraserState::Virgin;
  bool HaveLastAccess = false;
  Tid Owner = InvalidTid;
  LockSetId Candidate = LockSetRegistry::EmptyId;
  AccessSnapshot LastAccess;

  CallChain WriteChain;
  CallChain ReadChain;
  VectorClock ReadVC;
  std::unordered_map<Tid, CallChain> SharedChains;

  /// The address this cell shadows while it is live.
  Addr A = 0;
  /// This cell's position in CellOrder.
  uint32_t OrderAt = 0;

  /// Back to the default state for the free list. Sizes drop to zero but
  /// capacity stays, so the next address that takes this cell copies its
  /// chains without allocating.
  void reset() {
    WriteEpoch = ReadEpoch = BottomEpoch;
    ReadShared = ReportedHb = ReportedLs = HaveLastAccess = false;
    State = EraserState::Virgin;
    Owner = InvalidTid;
    Candidate = LockSetRegistry::EmptyId;
    LastAccess.Kind = AccessKind::Read;
    LastAccess.Goroutine = 0;
    LastAccess.Time = 0;
    LastAccess.Chain.clear();
    WriteChain.clear();
    ReadChain.clear();
    ReadVC.clear();
    // clear() walks every bucket; most cells never had a shared read.
    if (!SharedChains.empty())
      SharedChains.clear();
  }
};

Detector::Detector(DetectorOptions Opts) : Opts(Opts) {
  // Cells moves its elements when it grows; it must not copy them.
  static_assert(std::is_nothrow_move_constructible_v<ShadowCell>);
}

Detector::~Detector() = default;

void Detector::reset(DetectorOptions NewOpts) {
  Opts = NewOpts;
  if (Interner.size() > MaxKeptNames)
    Interner = StringInterner();
  LockSets.reset();
  Reports.clear();
  Sink_ = nullptr;
  Observer_ = nullptr;
  Stats = DetectorStats();

  // Goroutine states and sync slots are reset when a run takes them
  // again (allocThread(), newSyncVar()).
  NumThreads = 0;
  if (Threads.size() > MaxKeptSlots)
    std::vector<ThreadState>().swap(Threads);
  LiveThreads.clear();
  UntrimmedFinished.clear();
  SyncAlive.clear();
  SyncEverLocked.clear();
  SyncGen.clear();
  SyncFree.clear();
  if (SyncClocks.size() > MaxKeptSlots) {
    std::vector<VectorClock>().swap(SyncClocks);
    std::vector<std::string>().swap(SyncNames);
  }

  // The shadow table: the live cells and the slots the last run filled.
  for (uint32_t P = 0; P < LiveCells; ++P)
    Cells[CellOrder[P]].reset();
  LiveCells = 0;
  if (AllSlotsTouched)
    std::fill(Slots.begin(), Slots.end(), ShadowSlot());
  else
    for (uint32_t I : TouchedSlots)
      Slots[I] = ShadowSlot();
  TouchedSlots.clear();
  AllSlotsTouched = false;
  UsedSlots = 0;
  if (Slots.size() > MaxKeptSlots) {
    std::vector<ShadowSlot>().swap(Slots);
    std::vector<ShadowCell>().swap(Cells);
    std::vector<uint32_t>().swap(CellOrder);
    std::vector<uint32_t>().swap(TouchedSlots);
    SlotShift = 0;
  }

  MinClock.clear();
  EventsSinceGc = EventsSinceRefresh = 0;
  PeakCells = PeakVcWords = PeakChainBytes = 0;
}

Detector::ThreadState &Detector::thread(Tid T) {
  assert(T < NumThreads && "unknown goroutine id");
  return Threads[T];
}

const Detector::ThreadState &Detector::thread(Tid T) const {
  assert(T < NumThreads && "unknown goroutine id");
  return Threads[T];
}

//===----------------------------------------------------------------------===//
// The shadow table
//===----------------------------------------------------------------------===//

size_t Detector::slotHome(Addr A) const {
  // Fibonacci hashing: the top bits of A times 2^64/phi. Consecutive
  // virtual addresses (what rt hands out) land evenly spread.
  return static_cast<size_t>((A * 0x9e3779b97f4a7c15ULL) >> SlotShift);
}

Detector::ShadowSlot &Detector::shadowSlot(Addr A, StrId Name) {
  size_t Mask = Slots.size() - 1;
  size_t I = 0;
  if (!Slots.empty()) {
    for (I = slotHome(A);; I = (I + 1) & Mask) {
      ShadowSlot &Slot = Slots[I];
      if (Slot.State == SlotState::Empty)
        break;
      if (Slot.A != A)
        continue;
      if (Slot.Name == NoName)
        Slot.Name = Name;
      if (Slot.State == SlotState::Retired) {
        // Rebuild from the residue the GC left in place: the ReportOnce
        // flags, representation flag, and (in the slot) variable name are
        // exactly the state a never-collected cell would still carry that
        // a future access could observe.
        Slot.Cell = takeCell(Slot.Cell);
        Slot.State = SlotState::Live;
        ShadowCell &Cell = Cells[Slot.Cell];
        Cell.A = A;
        Cell.ReadShared = Slot.ReadShared;
        Cell.ReportedHb = Slot.ReportedHb;
        Cell.ReportedLs = Slot.ReportedLs;
      }
      return Slot;
    }
  }
  // Grow at 3/4 load, so a probe always ends at an empty slot.
  if ((UsedSlots + 1) * 4 > Slots.size() * 3) {
    growSlots();
    Mask = Slots.size() - 1;
    for (I = slotHome(A); Slots[I].State != SlotState::Empty;
         I = (I + 1) & Mask)
      ;
  }
  ++UsedSlots;
  if (!AllSlotsTouched) {
    if (TouchedSlots.size() < Slots.size() / 8)
      TouchedSlots.push_back(static_cast<uint32_t>(I));
    else
      AllSlotsTouched = true;
  }
  ShadowSlot &Slot = Slots[I];
  Slot = ShadowSlot{A, takeCell(NoCell), Name, SlotState::Live};
  Cells[Slot.Cell].A = A;
  return Slot;
}

size_t Detector::findSlot(Addr A) const {
  if (Slots.empty())
    return SIZE_MAX;
  size_t Mask = Slots.size() - 1;
  for (size_t I = slotHome(A); Slots[I].State != SlotState::Empty;
       I = (I + 1) & Mask)
    if (Slots[I].A == A)
      return I;
  return SIZE_MAX;
}

void Detector::growSlots() {
  std::vector<ShadowSlot> Old(Slots.empty() ? 32 : Slots.size() * 2);
  Old.swap(Slots);
  // Rehashing fills slots all over the new table.
  AllSlotsTouched = true;
  SlotShift = 64 - static_cast<unsigned>(__builtin_ctzll(Slots.size()));
  size_t Mask = Slots.size() - 1;
  for (const ShadowSlot &Slot : Old) {
    if (Slot.State == SlotState::Empty)
      continue;
    size_t I = slotHome(Slot.A);
    while (Slots[I].State != SlotState::Empty)
      I = (I + 1) & Mask;
    Slots[I] = Slot;
  }
}

void Detector::eraseSlot(size_t Hole) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole when the hole lies on their path from home, so no tombstone is
  // needed and every probe still ends at the first empty slot.
  size_t Mask = Slots.size() - 1;
  for (size_t J = (Hole + 1) & Mask; Slots[J].State != SlotState::Empty;
       J = (J + 1) & Mask) {
    if (((J - slotHome(Slots[J].A)) & Mask) >= ((J - Hole) & Mask)) {
      Slots[Hole] = Slots[J];
      Hole = J;
    }
  }
  Slots[Hole] = ShadowSlot();
  --UsedSlots;
}

void Detector::swapOrder(uint32_t P, uint32_t Q) {
  std::swap(CellOrder[P], CellOrder[Q]);
  Cells[CellOrder[P]].OrderAt = P;
  Cells[CellOrder[Q]].OrderAt = Q;
}

uint32_t Detector::takeCell(uint32_t Hint) {
  if (LiveCells == Cells.size()) {
    CellOrder.push_back(static_cast<uint32_t>(Cells.size()));
    Cells.emplace_back();
    Cells.back().OrderAt = LiveCells;
  } else if (Hint != NoCell && Cells[Hint].OrderAt > LiveCells) {
    swapOrder(Cells[Hint].OrderAt, LiveCells);
  }
  // Without a free hint this is the cell released last.
  uint32_t Index = CellOrder[LiveCells++];
  Stats.ShadowCells = LiveCells;
  return Index;
}

void Detector::releaseCell(uint32_t Index) {
  Cells[Index].reset();
  swapOrder(Cells[Index].OrderAt, --LiveCells);
}

ShadowFootprint Detector::footprint() const {
  ShadowFootprint F;
  F.ShadowCells = LiveCells;
  // Trimmed goroutines hold no clock or chain, so walking the live and
  // finished-untrimmed lists covers every nonzero contribution without
  // touching each ThreadState ever created (notePeaks() calls this
  // before every collection; an all-threads walk would make long
  // fork/join workloads pay O(total goroutines) per collection).
  for (const std::vector<Tid> *List : {&LiveThreads, &UntrimmedFinished}) {
    for (Tid T : *List) {
      const ThreadState &TS = Threads[T];
      F.VcWords += TS.C.size();
      F.ChainBytes += TS.Chain.size() * sizeof(Frame);
    }
  }
  for (size_t S = 0; S < SyncAlive.size(); ++S)
    F.VcWords += SyncClocks[S].size();
  for (uint32_t P = 0; P < LiveCells; ++P) {
    const ShadowCell &Cell = Cells[CellOrder[P]];
    F.VcWords += Cell.ReadVC.size();
    F.ChainBytes +=
        (Cell.WriteChain.size() + Cell.ReadChain.size()) * sizeof(Frame);
    for (const auto &[T, Chain] : Cell.SharedChains) {
      (void)T;
      F.ChainBytes += Chain.size() * sizeof(Frame);
    }
  }
  F.RetiredCells = UsedSlots - F.ShadowCells;
  // Lazy max-merge: a scrape between collections may observe a live
  // footprint above the last pre-GC sample.
  PeakCells = std::max(PeakCells, F.ShadowCells);
  PeakVcWords = std::max(PeakVcWords, F.VcWords);
  PeakChainBytes = std::max(PeakChainBytes, F.ChainBytes);
  F.PeakShadowCells = PeakCells;
  F.PeakVcWords = PeakVcWords;
  F.PeakChainBytes = PeakChainBytes;
  F.ReclaimedCells = Stats.GcCellsRetired;
  F.ReclaimedVcWords = Stats.GcVcWordsReclaimed;
  F.ReclaimedChainBytes = Stats.GcChainBytesReclaimed;
  return F;
}

//===----------------------------------------------------------------------===//
// Event stream
//===----------------------------------------------------------------------===//

void Detector::observe(EventKind Kind, Tid T, uint64_t A, uint64_t B,
                       bool Flag, const std::string *Str1,
                       const std::string *Str2) {
  if (!Observer_)
    return;
  TraceEvent Event;
  Event.Kind = Kind;
  Event.T = T;
  Event.A = A;
  Event.B = B;
  Event.Flag = Flag;
  Event.Str1 = Str1;
  Event.Str2 = Str2;
  Observer_->onTraceEvent(Event);
}

void Detector::annotate(EventKind Kind, Tid T, uint64_t A, bool Flag,
                        const std::string *Name) {
  observe(Kind, T, A, /*B=*/0, Flag, Name);
}

//===----------------------------------------------------------------------===//
// Goroutine lifecycle
//===----------------------------------------------------------------------===//

Tid Detector::allocThread() {
  Tid T = NumThreads++;
  if (T < Threads.size())
    Threads[T].reset();
  else
    Threads.emplace_back();
  // Every goroutine starts at epoch (T, 1) so a fresh epoch is never
  // mistaken for the all-zero bottom.
  Threads[T].C.set(T, 1);
  LiveThreads.push_back(T);
  return T;
}

Tid Detector::newRootGoroutine() {
  observe(EventKind::RootGoroutine, NumThreads);
  // A root has no happens-before predecessor, so it covers nothing: any
  // maintained minimum is invalid from here on. (State already reclaimed
  // under the old minimum assumed fork-descent from the existing roots —
  // the single-root-then-accesses discipline every producer follows; see
  // DESIGN.md §13.)
  MinClock.clear();
  return allocThread();
}

Tid Detector::fork(Tid Parent) {
  countEvent();
  observe(EventKind::Fork, Parent);
  Tid Child = allocThread();
  // The `go` statement happens-before the child's first action.
  Threads[Child].C.joinWith(thread(Parent).C);
  Threads[Child].C.set(Child, thread(Child).C.get(Child));
  thread(Parent).C.tick(Parent);
  ++Stats.SyncOps;
  return Child;
}

size_t Detector::numGoroutines() const { return NumThreads; }

void Detector::finish(Tid T) {
  countEvent();
  observe(EventKind::Finish, T);
  thread(T).Finished = true;
  for (size_t I = 0; I < LiveThreads.size(); ++I) {
    if (LiveThreads[I] == T) {
      LiveThreads[I] = LiveThreads.back();
      LiveThreads.pop_back();
      break;
    }
  }
  UntrimmedFinished.push_back(T);
  ++Stats.SyncOps;
  // One fewer live clock constrains the minimum: refresh so state the
  // finished goroutine alone kept alive becomes collectable. Throttled —
  // an eager refresh at EVERY finish/join is O(live clocks) and turns
  // fork/join-heavy workloads quadratic; a trim landing a few hundred
  // events late is invisible to the memory bound.
  maybeRefreshMinClock();
}

void Detector::join(Tid Waiter, Tid Target) {
  countEvent();
  observe(EventKind::Join, Waiter, Target);
  thread(Waiter).C.joinWith(thread(Target).C);
  ++Stats.SyncOps;
  // The waiter's clock grew, which can only raise the minimum; a
  // finished Target whose final clock is now covered by every live
  // goroutine gets its per-thread state trimmed here (throttled, see
  // finish()).
  maybeRefreshMinClock();
}

//===----------------------------------------------------------------------===//
// Synchronization events
//===----------------------------------------------------------------------===//

SyncId Detector::newSyncVar(const std::string &Name) {
  observe(EventKind::NewSync, 0, 0, 0, false, &Name);
  // Reuse a destroyed never-locked slot when one is free: its clock is
  // already empty, so the recycled id is indistinguishable from a fresh
  // one to the happens-before analysis. Allocation is deliberately
  // independent of DetectorOptions — a trace's recorded sync ids must
  // resolve to the same objects no matter which options replay it.
  if (!SyncFree.empty()) {
    SyncId S = SyncFree.back();
    SyncFree.pop_back();
    SyncAlive[S] = 1;
    SyncNames[S] = Name;
    ++Stats.SyncIdsReused;
    return S;
  }
  SyncId S = static_cast<SyncId>(SyncAlive.size());
  if (S < SyncClocks.size()) {
    SyncClocks[S].clear();
    SyncNames[S] = Name;
  } else {
    SyncClocks.emplace_back();
    SyncNames.push_back(Name);
  }
  SyncAlive.push_back(1);
  SyncEverLocked.push_back(0);
  SyncGen.push_back(0);
  return S;
}

void Detector::acquire(Tid T, SyncId S) {
  assert(S < SyncAlive.size() && "unknown sync object");
  countEvent();
  observe(EventKind::Acquire, T, S);
  if (!SyncAlive[S]) {
    ++Stats.DeadSyncOps;
    return;
  }
  thread(T).C.joinWith(SyncClocks[S]);
  ++Stats.SyncOps;
}

void Detector::release(Tid T, SyncId S) {
  assert(S < SyncAlive.size() && "unknown sync object");
  countEvent();
  observe(EventKind::Release, T, S);
  if (!SyncAlive[S]) {
    ++Stats.DeadSyncOps;
    return;
  }
  SyncClocks[S] = thread(T).C;
  thread(T).C.tick(T);
  ++Stats.SyncOps;
}

void Detector::releaseMerge(Tid T, SyncId S) {
  assert(S < SyncAlive.size() && "unknown sync object");
  countEvent();
  observe(EventKind::ReleaseMerge, T, S);
  if (!SyncAlive[S]) {
    ++Stats.DeadSyncOps;
    return;
  }
  SyncClocks[S].joinWith(thread(T).C);
  thread(T).C.tick(T);
  ++Stats.SyncOps;
}

void Detector::transferSync(SyncId From, SyncId To) {
  assert(From < SyncAlive.size() && To < SyncAlive.size() &&
         "unknown sync object");
  countEvent();
  observe(EventKind::TransferSync, 0, From, To);
  if (!SyncAlive[From] || !SyncAlive[To]) {
    ++Stats.DeadSyncOps;
    return;
  }
  SyncClocks[To].joinWith(SyncClocks[From]);
  ++Stats.SyncOps;
}

void Detector::destroySyncVar(Tid T, SyncId S) {
  observe(EventKind::DestroySync, T, S);
  // Benign on unknown/already-dead ids: runtime object teardown may
  // legitimately race with abandoned-goroutine unwinding at end of run.
  if (S >= SyncAlive.size() || !SyncAlive[S])
    return;
  SyncAlive[S] = 0;
  ++SyncGen[S];
  ++Stats.SyncVarsDestroyed;
  Stats.GcVcWordsReclaimed += SyncClocks[S].size();
  if (SyncClocks[S].size())
    ++Stats.GcSyncClocksFreed;
  SyncClocks[S].reset();
  SyncNames[S].clear();
  SyncNames[S].shrink_to_fit();
  // Only ids never used as locks are recycled: a destroyed lock's id can
  // linger inside interned Eraser candidate sets, where a recycled
  // occupant would alias it and corrupt lock-set verdicts.
  if (!SyncEverLocked[S])
    SyncFree.push_back(S);
}

bool Detector::syncVarLive(SyncId S) const {
  return S < SyncAlive.size() && SyncAlive[S];
}

SyncGeneration Detector::syncVarGeneration(SyncId S) const {
  assert(S < SyncGen.size() && "unknown sync object");
  return SyncGen[S];
}

void Detector::lockAcquired(Tid T, SyncId S, bool WriteMode) {
  observe(EventKind::LockAcquire, T, S, 0, WriteMode);
  if (S < SyncEverLocked.size())
    SyncEverLocked[S] = 1;
  ThreadState &TS = thread(T);
  TS.HeldAll = LockSets.withLock(TS.HeldAll, S);
  if (WriteMode)
    TS.HeldWrite = LockSets.withLock(TS.HeldWrite, S);
}

void Detector::lockReleased(Tid T, SyncId S, bool WriteMode) {
  observe(EventKind::LockRelease, T, S, 0, WriteMode);
  ThreadState &TS = thread(T);
  TS.HeldAll = LockSets.withoutLock(TS.HeldAll, S);
  if (WriteMode)
    TS.HeldWrite = LockSets.withoutLock(TS.HeldWrite, S);
}

LockSetId Detector::heldWriteLocks(Tid T) const {
  return thread(T).HeldWrite;
}

LockSetId Detector::heldAllLocks(Tid T) const { return thread(T).HeldAll; }

//===----------------------------------------------------------------------===//
// Call-chain maintenance
//===----------------------------------------------------------------------===//

Frame Detector::makeFrame(const std::string &Function, const std::string &File,
                          uint32_t Line) {
  return Frame{Interner.intern(Function), Interner.intern(File), Line};
}

void Detector::pushFrame(Tid T, const Frame &F) {
  if (Observer_)
    observe(EventKind::PushFrame, T, 0, F.Line, false,
            &Interner.text(F.Function), &Interner.text(F.File));
  thread(T).Chain.push_back(F);
}

void Detector::popFrame(Tid T) {
  observe(EventKind::PopFrame, T);
  CallChain &Chain = thread(T).Chain;
  assert(!Chain.empty() && "popFrame() on empty chain");
  Chain.pop_back();
}

void Detector::setLine(Tid T, uint32_t Line) {
  observe(EventKind::SetLine, T, Line);
  CallChain &Chain = thread(T).Chain;
  if (!Chain.empty())
    Chain.back().Line = Line;
}

const CallChain &Detector::currentChain(Tid T) const {
  return thread(T).Chain;
}

//===----------------------------------------------------------------------===//
// Reporting helpers
//===----------------------------------------------------------------------===//

void Detector::snapshotInto(AccessSnapshot &Snapshot, Tid T,
                            AccessKind Kind) const {
  Snapshot.Kind = Kind;
  Snapshot.Goroutine = T;
  Snapshot.Time = thread(T).C.get(T);
  if (Opts.KeepChains)
    Snapshot.Chain = thread(T).Chain;
  else
    Snapshot.Chain.clear();
}

AccessSnapshot Detector::snapshotCurrent(Tid T, AccessKind Kind) const {
  AccessSnapshot Snapshot;
  snapshotInto(Snapshot, T, Kind);
  return Snapshot;
}

RaceReport Detector::newReport(Addr A, StrId Name,
                               RaceEvidence Evidence) const {
  RaceReport Report;
  Report.Address = A;
  Report.VariableName = Interner.text(Name);
  Report.Evidence = Evidence;
  return Report;
}

void Detector::emitReport(RaceReport Report, ShadowCell &Cell) {
  if (Report.Evidence == RaceEvidence::HappensBefore) {
    if (Opts.ReportOncePerAddress && Cell.ReportedHb) {
      ++Stats.ReportsSuppressed;
      return;
    }
    Cell.ReportedHb = true;
  } else {
    if (Opts.ReportOncePerAddress && Cell.ReportedLs) {
      ++Stats.ReportsSuppressed;
      return;
    }
    Cell.ReportedLs = true;
  }
  if (Opts.MaxReports && Reports.size() >= Opts.MaxReports) {
    ++Stats.ReportsSuppressed;
    return;
  }
  ++Stats.RacesReported;
  if (Sink_)
    Sink_(Report);
  Reports.push_back(std::move(Report));
}

//===----------------------------------------------------------------------===//
// FastTrack happens-before checks
//===----------------------------------------------------------------------===//

bool Detector::checkHbRead(Tid T, Addr A, StrId Name, ShadowCell &Cell) {
  ThreadState &TS = thread(T);
  Clock Now = TS.C.get(T);

  // Same-epoch fast path: this goroutine already read at this clock.
  if (Opts.EpochOptimization) {
    if (!Cell.ReadShared && Cell.ReadEpoch == Epoch{T, Now}) {
      ++Stats.SameEpochFastPath;
      return false;
    }
    if (Cell.ReadShared && Cell.ReadVC.get(T) == Now && Now != 0) {
      ++Stats.SameEpochFastPath;
      return false;
    }
  } else {
    // Full-VC ablation: go straight to the vector-clock representation
    // (reads never collapse to an epoch, no fast paths).
    Cell.ReadShared = true;
  }

  bool Raced = false;
  if (Cell.WriteEpoch.valid() && !TS.C.covers(Cell.WriteEpoch)) {
    RaceReport Report = newReport(A, Name, RaceEvidence::HappensBefore);
    Report.Previous = {AccessKind::Write, Cell.WriteEpoch.Id,
                       Cell.WriteEpoch.Time, Cell.WriteChain};
    Report.Current = snapshotCurrent(T, AccessKind::Read);
    emitReport(std::move(Report), Cell);
    Raced = true;
  }

  // Update read state (FastTrack rules: exclusive epoch when ordered,
  // promotion to a read vector clock under concurrent reads).
  if (Cell.ReadShared) {
    Cell.ReadVC.set(T, Now);
    if (Opts.KeepChains)
      Cell.SharedChains[T] = TS.Chain;
    return Raced;
  }
  if (Cell.ReadEpoch.valid() && !TS.C.covers(Cell.ReadEpoch)) {
    Cell.ReadShared = true;
    Cell.ReadVC.clear();
    Cell.ReadVC.set(Cell.ReadEpoch.Id, Cell.ReadEpoch.Time);
    Cell.ReadVC.set(T, Now);
    if (Opts.KeepChains) {
      Cell.SharedChains[Cell.ReadEpoch.Id] = Cell.ReadChain;
      Cell.SharedChains[T] = TS.Chain;
    }
    ++Stats.ReadSharePromotions;
    return Raced;
  }
  Cell.ReadEpoch = Epoch{T, Now};
  if (Opts.KeepChains)
    Cell.ReadChain = TS.Chain;
  return Raced;
}

bool Detector::checkHbWrite(Tid T, Addr A, StrId Name, ShadowCell &Cell) {
  ThreadState &TS = thread(T);
  Clock Now = TS.C.get(T);

  // Same-epoch fast path: this goroutine already wrote at this clock.
  if (Opts.EpochOptimization && Cell.WriteEpoch == Epoch{T, Now}) {
    ++Stats.SameEpochFastPath;
    return false;
  }

  bool Raced = false;
  if (Cell.WriteEpoch.valid() && !TS.C.covers(Cell.WriteEpoch)) {
    RaceReport Report = newReport(A, Name, RaceEvidence::HappensBefore);
    Report.Previous = {AccessKind::Write, Cell.WriteEpoch.Id,
                       Cell.WriteEpoch.Time, Cell.WriteChain};
    Report.Current = snapshotCurrent(T, AccessKind::Write);
    emitReport(std::move(Report), Cell);
    Raced = true;
  }

  if (Cell.ReadShared) {
    Tid Offender = TS.C.firstUncovered(Cell.ReadVC);
    if (Offender != InvalidTid) {
      RaceReport Report = newReport(A, Name, RaceEvidence::HappensBefore);
      CallChain OffenderChain;
      auto ChainIt = Cell.SharedChains.find(Offender);
      if (ChainIt != Cell.SharedChains.end())
        OffenderChain = ChainIt->second;
      Report.Previous = {AccessKind::Read, Offender,
                         Cell.ReadVC.get(Offender), std::move(OffenderChain)};
      Report.Current = snapshotCurrent(T, AccessKind::Write);
      emitReport(std::move(Report), Cell);
      Raced = true;
    }
  } else if (Cell.ReadEpoch.valid() && !TS.C.covers(Cell.ReadEpoch)) {
    RaceReport Report = newReport(A, Name, RaceEvidence::HappensBefore);
    Report.Previous = {AccessKind::Read, Cell.ReadEpoch.Id,
                       Cell.ReadEpoch.Time, Cell.ReadChain};
    Report.Current = snapshotCurrent(T, AccessKind::Write);
    emitReport(std::move(Report), Cell);
    Raced = true;
  }

  // Update write state; reset shared-read bookkeeping like FastTrack.
  Cell.WriteEpoch = Epoch{T, Now};
  if (Opts.KeepChains)
    Cell.WriteChain = TS.Chain;
  if (Cell.ReadShared) {
    Cell.ReadShared = false;
    Cell.ReadVC.clear();
    Cell.SharedChains.clear();
    Cell.ReadEpoch = BottomEpoch;
    Cell.ReadChain.clear();
  }
  return Raced;
}

//===----------------------------------------------------------------------===//
// Eraser lock-set checks
//===----------------------------------------------------------------------===//

bool Detector::applyEraser(Tid T, Addr A, StrId Name, AccessKind Kind,
                           ShadowCell &Cell) {
  ThreadState &TS = thread(T);
  // A read is protected by any lock held (read or write mode); a write
  // needs a write-mode lock (RLock does not protect writes, Listing 11).
  LockSetId Held = Kind == AccessKind::Read ? TS.HeldAll : TS.HeldWrite;

  bool BecameReportable = false;
  switch (Cell.State) {
  case EraserState::Virgin:
    Cell.State = EraserState::Exclusive;
    ++Stats.EraserTransitions;
    Cell.Owner = T;
    // C(v) := all-locks ∩ held — Eraser refines from the first access;
    // the Exclusive state only suppresses REPORTING, not refinement.
    Cell.Candidate = Held;
    break;
  case EraserState::Exclusive:
    if (T == Cell.Owner) {
      Cell.Candidate = LockSets.intersect(Cell.Candidate, Held);
      break;
    }
    Cell.Candidate = LockSets.intersect(Cell.Candidate, Held);
    Cell.State = Kind == AccessKind::Read ? EraserState::Shared
                                          : EraserState::SharedModified;
    ++Stats.EraserTransitions;
    BecameReportable = Cell.State == EraserState::SharedModified;
    break;
  case EraserState::Shared:
    Cell.Candidate = LockSets.intersect(Cell.Candidate, Held);
    if (Kind == AccessKind::Write) {
      Cell.State = EraserState::SharedModified;
      ++Stats.EraserTransitions;
      BecameReportable = true;
    }
    break;
  case EraserState::SharedModified:
    Cell.Candidate = LockSets.intersect(Cell.Candidate, Held);
    BecameReportable = true;
    break;
  }

  bool Raced = false;
  if (BecameReportable && LockSets.isEmpty(Cell.Candidate)) {
    // In hybrid mode the HB report (precise evidence) subsumes the
    // lock-set finding for the same address.
    bool Suppress = Opts.Mode == DetectMode::Hybrid && Cell.ReportedHb;
    if (!Suppress && Cell.HaveLastAccess) {
      RaceReport Report = newReport(A, Name, RaceEvidence::LockSetEmpty);
      Report.Previous = Cell.LastAccess;
      Report.Current = snapshotCurrent(T, Kind);
      emitReport(std::move(Report), Cell);
      Raced = true;
    }
  }

  snapshotInto(Cell.LastAccess, T, Kind);
  Cell.HaveLastAccess = true;
  return Raced;
}

//===----------------------------------------------------------------------===//
// Memory accesses
//===----------------------------------------------------------------------===//

bool Detector::onRead(Tid T, Addr A, StrId Name) {
  countEvent();
  if (Observer_)
    observe(EventKind::Read, T, A, 0, false, &Interner.text(Name));
  ++Stats.Reads;
  const ShadowSlot &Slot = shadowSlot(A, Name);
  ShadowCell &Cell = Cells[Slot.Cell];
  bool Raced = false;
  if (Opts.Mode != DetectMode::LockSetOnly)
    Raced |= checkHbRead(T, A, Slot.Name, Cell);
  if (Opts.Mode != DetectMode::HappensBefore)
    Raced |= applyEraser(T, A, Slot.Name, AccessKind::Read, Cell);
  return Raced;
}

bool Detector::onWrite(Tid T, Addr A, StrId Name) {
  countEvent();
  if (Observer_)
    observe(EventKind::Write, T, A, 0, false, &Interner.text(Name));
  ++Stats.Writes;
  const ShadowSlot &Slot = shadowSlot(A, Name);
  ShadowCell &Cell = Cells[Slot.Cell];
  bool Raced = false;
  if (Opts.Mode != DetectMode::LockSetOnly)
    Raced |= checkHbWrite(T, A, Slot.Name, Cell);
  if (Opts.Mode != DetectMode::HappensBefore)
    Raced |= applyEraser(T, A, Slot.Name, AccessKind::Write, Cell);
  return Raced;
}

const VectorClock &Detector::clockOf(Tid T) const { return thread(T).C; }

bool Detector::hasShadow(Addr A) const {
  size_t I = findSlot(A);
  return I != SIZE_MAX && Slots[I].State == SlotState::Live;
}

//===----------------------------------------------------------------------===//
// Min-clock shadow-state garbage collection
//
// Invariant everything below leans on: MinClock is a component-wise lower
// bound on the clock of EVERY goroutine that can ever perform another
// event. Live goroutines' clocks only grow; goroutines created later
// inherit a parent's clock at fork, and the parent covers MinClock. So
// any epoch covered by MinClock is covered by all future accessors
// forever: it can never again be the uncovered side of a race check, and
// a chain only reachable through it can never be quoted in a report.
// Collection is therefore verdict-neutral — the differential battery in
// tests/DetectorGcTest.cpp checks exactly that, and DESIGN.md §13 spells
// out the cases (including the two representation hazards the sweeps
// below explicitly guard against).
//===----------------------------------------------------------------------===//

void Detector::countEvent() {
  if (Opts.Gc != GcMode::MinClock)
    return;
  ++EventsSinceRefresh;
  if (Opts.GcIntervalEvents == 0)
    return;
  if (++EventsSinceGc >= Opts.GcIntervalEvents) {
    EventsSinceGc = 0;
    gcNow();
  }
}

void Detector::maybeRefreshMinClock() {
  // Amortization guard for the eager finish/join refresh: each refresh
  // costs O(live clocks), so running one per event would make a
  // fork/join loop quadratic in rounds. 256 events of slack keeps the
  // refresh cost well under the per-event detector work while still
  // trimming long-dead state orders of magnitude before the footprint
  // could drift.
  constexpr uint64_t EagerRefreshSlackEvents = 256;
  if (Opts.Gc != GcMode::MinClock ||
      EventsSinceRefresh < EagerRefreshSlackEvents)
    return;
  refreshMinClock();
}

void Detector::gcNow() {
  if (Opts.Gc != GcMode::MinClock)
    return;
  ++Stats.GcRuns;
  notePeaks();
  refreshMinClock();
  sweepSyncClocks();
  sweepShadow();
}

void Detector::notePeaks() {
  ShadowFootprint F = footprint(); // max-merges into Peak* itself
  (void)F;
}

void Detector::refreshMinClock() {
  if (Opts.Gc != GcMode::MinClock)
    return;
  EventsSinceRefresh = 0;
  // Computed in place, reusing MinClock's storage. With no live goroutine
  // left the previous bound stays valid: only a later root could act, and
  // newRootGoroutine() clears MinClock.
  bool Any = false;
  for (Tid T : LiveThreads) {
    const ThreadState &TS = Threads[T];
    if (!Any) {
      MinClock = TS.C;
      Any = true;
    } else {
      MinClock.minWith(TS.C);
    }
  }
  trimDominatedThreads();
}

void Detector::trimDominatedThreads() {
  // Only finished-but-untrimmed goroutines are candidates; walking the
  // pending list (instead of every ThreadState ever created) keeps this
  // O(recent finishes) on long fork/join workloads.
  size_t Keep = 0;
  for (size_t I = 0; I < UntrimmedFinished.size(); ++I) {
    ThreadState &TS = Threads[UntrimmedFinished[I]];
    if (!MinClock.coversAll(TS.C)) {
      UntrimmedFinished[Keep++] = UntrimmedFinished[I];
      continue;
    }
    // Every live goroutine already covers this final clock, so any
    // remaining join(waiter, T) is a no-op with or without the state.
    Stats.GcVcWordsReclaimed += TS.C.size();
    Stats.GcChainBytesReclaimed += TS.Chain.size() * sizeof(Frame);
    ++Stats.GcThreadsTrimmed;
    TS.C.reset();
    CallChain().swap(TS.Chain);
    TS.Trimmed = true;
  }
  UntrimmedFinished.resize(Keep);
}

void Detector::sweepSyncClocks() {
  for (SyncId S = 0; S < SyncAlive.size(); ++S) {
    VectorClock &VC = SyncClocks[S];
    if (!SyncAlive[S] || VC.size() == 0 || !MinClock.coversAll(VC))
      continue;
    // Every future acquirer covers this clock already; the join it
    // would contribute is a no-op, so an empty clock behaves the same.
    Stats.GcVcWordsReclaimed += VC.size();
    ++Stats.GcSyncClocksFreed;
    VC.reset();
  }
}

void Detector::sweepShadow() {
  bool CanRetire = Opts.Mode == DetectMode::HappensBefore;
  // Walk the live cells, not the table: residue slots pile up with every
  // address ever retired.
  for (uint32_t P = 0; P < LiveCells;) {
    uint32_t Index = CellOrder[P];
    ShadowCell &Cell = Cells[Index];
    // "Dominated" on a side means: absent, or covered by MinClock (and
    // hence by every future accessor's clock, forever).
    bool WDom = !Cell.WriteEpoch.valid() || epochDominated(Cell.WriteEpoch);
    bool RDom = Cell.ReadShared
                    ? MinClock.coversAll(Cell.ReadVC)
                    : (!Cell.ReadEpoch.valid() ||
                       epochDominated(Cell.ReadEpoch));

    // Representation hazard guard: while the last writer is live and
    // still at the write epoch's clock, its next same-epoch write takes
    // the fast path on the old cell (skipping the shared-read reset) but
    // would take the slow path on a rebuilt cell — the two copies then
    // disagree on ReadShared. Never retire such a cell; clocks only
    // grow, so the guard clears as soon as the writer ticks or finishes.
    bool WriterMayFastPath = false;
    if (Cell.WriteEpoch.valid() && Cell.WriteEpoch.Id < NumThreads) {
      const ThreadState &WS = Threads[Cell.WriteEpoch.Id];
      WriterMayFastPath =
          !WS.Finished && WS.C.get(Cell.WriteEpoch.Id) == Cell.WriteEpoch.Time;
    }

    if (CanRetire && WDom && RDom &&
        !(Cell.ReadShared && WriterMayFastPath)) {
      // Fully dominated: no future access can race with any of this
      // state, and the ReportOnce flags + name survive in the residue.
      Stats.GcVcWordsReclaimed += Cell.ReadVC.size();
      uint64_t Chains = Cell.WriteChain.size() + Cell.ReadChain.size();
      for (const auto &[T, Chain] : Cell.SharedChains) {
        (void)T;
        Chains += Chain.size();
      }
      Stats.GcChainBytesReclaimed += Chains * sizeof(Frame);
      ++Stats.GcCellsRetired;
      size_t I = findSlot(Cell.A);
      ShadowSlot &Slot = Slots[I];
      bool NeedResidue = Cell.ReportedHb || Cell.ReportedLs ||
                         Slot.Name != NoName ||
                         (Cell.ReadShared && Opts.EpochOptimization);
      Slot.ReadShared = Cell.ReadShared;
      Slot.ReportedHb = Cell.ReportedHb;
      Slot.ReportedLs = Cell.ReportedLs;
      if (NeedResidue)
        Slot.State = SlotState::Retired;
      else
        eraseSlot(I); // An all-default residue leaves the table.
      // The last live cell moves to position P: visit it next.
      releaseCell(Index);
      continue;
    }

    // Partial trims on a kept cell. Chains quoted in reports are only
    // reachable via their epoch/VC entry; once that entry is dominated
    // the chain is dead weight.
    if (WDom && !Cell.WriteChain.empty()) {
      Stats.GcChainBytesReclaimed += Cell.WriteChain.size() * sizeof(Frame);
      CallChain().swap(Cell.WriteChain);
    }
    if (!Cell.ReadShared && RDom && !Cell.ReadChain.empty()) {
      Stats.GcChainBytesReclaimed += Cell.ReadChain.size() * sizeof(Frame);
      CallChain().swap(Cell.ReadChain);
    }
    if (Cell.ReadShared) {
      if (RDom && WDom && Cell.ReadVC.size() != 0) {
        // Tentpole (a): a fully dominated shared read set can never name
        // an offender again. The epochs and the ReadShared flag are
        // deliberately KEPT — collapsing the representation back to a
        // read epoch could change which offender firstUncovered() names,
        // and dropping epochs changes fast-path behavior (the second
        // hazard in DESIGN.md §13). Only the storage is released.
        Stats.GcVcWordsReclaimed += Cell.ReadVC.size();
        for (const auto &[T, Chain] : Cell.SharedChains) {
          (void)T;
          Stats.GcChainBytesReclaimed += Chain.size() * sizeof(Frame);
        }
        Cell.ReadVC.reset();
        std::unordered_map<Tid, CallChain>().swap(Cell.SharedChains);
      } else if (!Cell.SharedChains.empty()) {
        // Per-reader chain trim: drop chains whose VC entry is dominated
        // (the entry itself stays, so fast paths and offender naming are
        // untouched; a dominated entry is never named).
        for (auto CIt = Cell.SharedChains.begin();
             CIt != Cell.SharedChains.end();) {
          Clock Entry = Cell.ReadVC.get(CIt->first);
          if (Entry != 0 && MinClock.covers(Epoch{CIt->first, Entry})) {
            Stats.GcChainBytesReclaimed += CIt->second.size() * sizeof(Frame);
            CIt = Cell.SharedChains.erase(CIt);
          } else {
            ++CIt;
          }
        }
      }
    }
    ++P;
  }
  Stats.ShadowCells = LiveCells;
}
