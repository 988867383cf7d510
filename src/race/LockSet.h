//===- race/LockSet.h - Eraser-style lock-set tracking ----------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned lock sets and the Eraser state machine [76]. The Go race
/// detector's ThreadSanitizer runtime "uses a combination of lock-sets and
/// HB based algorithms" (paper §3.1); this module supplies the lock-set
/// half, which the Detector runs alongside (or instead of) vector clocks.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_RACE_LOCKSET_H
#define GRS_RACE_LOCKSET_H

#include "race/Ids.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace grs {
namespace race {

/// Id of an interned lock set. Id 0 is always the empty set.
using LockSetId = uint32_t;

/// Interning/memoization efficiency counters, mirrored into the
/// observability registry by obs::DetectorObserver::sync().
struct LockSetStats {
  /// intern() found the set already hash-consed / allocated a new one.
  uint64_t InternHits = 0;
  uint64_t InternMisses = 0;
  /// intersect() answered from the memo table / computed and memoized.
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
};

/// Hash-consing registry of lock sets, so shadow cells store a 32-bit id
/// instead of a vector, and intersections of common sets are memoized.
class LockSetRegistry {
public:
  LockSetRegistry();

  /// The id of the empty set.
  static constexpr LockSetId EmptyId = 0;

  /// Back to a fresh registry's ids and stats, keeping the table's
  /// capacity; O(1) after a run that took no lock (Detector::reset()).
  void reset();

  /// \returns the id of \p Set (sorted, deduplicated internally).
  LockSetId intern(std::vector<SyncId> Locks);

  /// \returns the id of Set(A) with \p Lock added (memoized).
  LockSetId withLock(LockSetId A, SyncId Lock) {
    return transition(A, Lock, /*Add=*/true);
  }

  /// \returns the id of Set(A) with \p Lock removed (memoized).
  LockSetId withoutLock(LockSetId A, SyncId Lock) {
    return transition(A, Lock, /*Add=*/false);
  }

  /// \returns the id of Set(A) intersected with Set(B) (memoized).
  LockSetId intersect(LockSetId A, LockSetId B);

  /// \returns the locks in Set(\p Id), sorted ascending.
  const std::vector<SyncId> &locks(LockSetId Id) const;

  bool isEmpty(LockSetId Id) const { return Id == EmptyId; }

  bool contains(LockSetId Id, SyncId Lock) const;

  size_t numInternedSets() const { return Sets.size(); }

  const LockSetStats &stats() const { return Stats; }

  /// Debug rendering like "{m1, m7}".
  std::string str(LockSetId Id) const;

private:
  LockSetId transition(LockSetId A, SyncId Lock, bool Add);

  /// The two transitions of one (set, lock) pair; NotMemoized until the
  /// first call computes them.
  static constexpr LockSetId NotMemoized = ~static_cast<LockSetId>(0);
  struct Transitions {
    LockSetId With = NotMemoized;
    LockSetId Without = NotMemoized;
  };

  std::vector<std::vector<SyncId>> Sets;
  std::map<std::vector<SyncId>, LockSetId> Index;
  std::map<std::pair<LockSetId, LockSetId>, LockSetId> IntersectMemo;
  /// Keyed by (set << 32 | lock): a held-lock set changes at every lock
  /// event, so a critical section costs two lookups, not two vector
  /// copies, sorts and interns.
  std::unordered_map<uint64_t, Transitions> TransitionMemo;
  LockSetStats Stats;
};

/// Eraser per-variable ownership state [76]: a variable starts Virgin,
/// becomes Exclusive to its first thread, Shared once a second thread
/// reads it, and SharedModified once a second thread writes; candidate
/// lock sets are only refined (and emptiness only reported) in the shared
/// states, which suppresses initialization false positives.
enum class EraserState : uint8_t {
  Virgin,
  Exclusive,
  Shared,
  SharedModified,
};

/// \returns a printable name for \p State.
const char *eraserStateName(EraserState State);

} // namespace race
} // namespace grs

#endif // GRS_RACE_LOCKSET_H
