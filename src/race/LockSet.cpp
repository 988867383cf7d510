//===- race/LockSet.cpp - Eraser-style lock-set tracking ------------------===//

#include "race/LockSet.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>

using namespace grs::race;

LockSetRegistry::LockSetRegistry() {
  // Reserve id 0 for the empty set.
  Sets.emplace_back();
  Index.emplace(std::vector<SyncId>(), EmptyId);
}

void LockSetRegistry::reset() {
  Sets.resize(1);
  // The empty set sorts first: keep its entry.
  Index.erase(std::next(Index.begin()), Index.end());
  IntersectMemo.clear();
  // clear() walks every bucket, used or not.
  if (!TransitionMemo.empty())
    TransitionMemo.clear();
  Stats = LockSetStats();
}

LockSetId LockSetRegistry::intern(std::vector<SyncId> Locks) {
  std::sort(Locks.begin(), Locks.end());
  Locks.erase(std::unique(Locks.begin(), Locks.end()), Locks.end());
  auto Found = Index.find(Locks);
  if (Found != Index.end()) {
    ++Stats.InternHits;
    return Found->second;
  }
  ++Stats.InternMisses;
  LockSetId Id = static_cast<LockSetId>(Sets.size());
  Index.emplace(Locks, Id);
  Sets.push_back(std::move(Locks));
  return Id;
}

LockSetId LockSetRegistry::transition(LockSetId A, SyncId Lock, bool Add) {
  Transitions &Memo =
      TransitionMemo[static_cast<uint64_t>(A) << 32 | Lock];
  LockSetId &Result = Add ? Memo.With : Memo.Without;
  if (Result != NotMemoized) {
    // A changed set came from intern() the first time, so the stats count
    // the hit that repeating it would find.
    if (Result != A)
      ++Stats.InternHits;
    return Result;
  }
  std::vector<SyncId> Locks = locks(A);
  auto Found = std::lower_bound(Locks.begin(), Locks.end(), Lock);
  bool Present = Found != Locks.end() && *Found == Lock;
  if (Add == Present) {
    Result = A;
    return A;
  }
  if (Add)
    Locks.insert(Found, Lock);
  else
    Locks.erase(Found);
  Result = intern(std::move(Locks));
  return Result;
}

LockSetId LockSetRegistry::intersect(LockSetId A, LockSetId B) {
  if (A == B)
    return A;
  if (A == EmptyId || B == EmptyId)
    return EmptyId;
  auto Key = std::minmax(A, B);
  auto Memo = IntersectMemo.find({Key.first, Key.second});
  if (Memo != IntersectMemo.end()) {
    ++Stats.MemoHits;
    return Memo->second;
  }
  ++Stats.MemoMisses;
  const std::vector<SyncId> &SetA = locks(A);
  const std::vector<SyncId> &SetB = locks(B);
  std::vector<SyncId> Result;
  std::set_intersection(SetA.begin(), SetA.end(), SetB.begin(), SetB.end(),
                        std::back_inserter(Result));
  LockSetId Id = intern(std::move(Result));
  IntersectMemo.emplace(std::make_pair(Key.first, Key.second), Id);
  return Id;
}

const std::vector<SyncId> &LockSetRegistry::locks(LockSetId Id) const {
  assert(Id < Sets.size() && "unknown lock-set id");
  return Sets[Id];
}

bool LockSetRegistry::contains(LockSetId Id, SyncId Lock) const {
  const std::vector<SyncId> &Locks = locks(Id);
  return std::binary_search(Locks.begin(), Locks.end(), Lock);
}

std::string LockSetRegistry::str(LockSetId Id) const {
  std::ostringstream OS;
  OS << '{';
  const std::vector<SyncId> &Locks = locks(Id);
  for (size_t I = 0; I < Locks.size(); ++I) {
    if (I)
      OS << ", ";
    OS << 'm' << Locks[I];
  }
  OS << '}';
  return OS.str();
}

const char *grs::race::eraserStateName(EraserState State) {
  switch (State) {
  case EraserState::Virgin:
    return "virgin";
  case EraserState::Exclusive:
    return "exclusive";
  case EraserState::Shared:
    return "shared";
  case EraserState::SharedModified:
    return "shared-modified";
  }
  return "unknown";
}
