//===- trace/Offline.cpp - Offline replay race detection ------------------===//

#include "trace/Offline.h"

#include "obs/Metrics.h"
#include "pipeline/Fingerprint.h"

#include <algorithm>

using namespace grs;
using namespace grs::trace;
using race::EventKind;

OfflineDetector::OfflineDetector(race::DetectorOptions Opts) : Det(Opts) {}

void OfflineDetector::setMetrics(obs::Registry *Reg) {
  MEvents = Reg ? Reg->counter("grs_trace_replay_events_total") : nullptr;
}

bool OfflineDetector::fail(std::string Message) {
  if (Error.empty())
    Error = std::move(Message);
  return false;
}

bool OfflineDetector::apply(const Trace &T, const TraceRecord &Record) {
  // The detector asserts on out-of-range ids in debug builds; validate
  // here so release-mode replay of hostile bytes fails cleanly instead.
  auto CheckTid = [&](race::Tid Id) {
    return Id < Det.numGoroutines() ||
           fail("event references unallocated goroutine " +
                std::to_string(Id));
  };
  auto CheckSync = [&](uint64_t Id) {
    // Slot count, not NewSync count: destroy-driven free-list reuse
    // means ids are recycled, so the detector's slot table is the
    // authoritative bound.
    return Id < Det.numSyncVarSlots() ||
           fail("event references unallocated sync var " +
                std::to_string(Id));
  };

  switch (Record.Kind) {
  case EventKind::RootGoroutine:
    Det.newRootGoroutine();
    break;
  case EventKind::Fork:
    if (!CheckTid(Record.T))
      return false;
    Det.fork(Record.T);
    break;
  case EventKind::Finish:
    if (!CheckTid(Record.T))
      return false;
    Det.finish(Record.T);
    break;
  case EventKind::Join:
    if (!CheckTid(Record.T) || !CheckTid(static_cast<race::Tid>(Record.A)))
      return false;
    Det.join(Record.T, static_cast<race::Tid>(Record.A));
    break;
  case EventKind::NewSync:
    Det.newSyncVar(T.text(Record.Str1));
    ++NumSyncVars;
    break;
  case EventKind::Acquire:
    if (!CheckTid(Record.T) || !CheckSync(Record.A))
      return false;
    Det.acquire(Record.T, static_cast<race::SyncId>(Record.A));
    break;
  case EventKind::Release:
    if (!CheckTid(Record.T) || !CheckSync(Record.A))
      return false;
    Det.release(Record.T, static_cast<race::SyncId>(Record.A));
    break;
  case EventKind::ReleaseMerge:
    if (!CheckTid(Record.T) || !CheckSync(Record.A))
      return false;
    Det.releaseMerge(Record.T, static_cast<race::SyncId>(Record.A));
    break;
  case EventKind::TransferSync:
    if (!CheckSync(Record.A) || !CheckSync(Record.B))
      return false;
    Det.transferSync(static_cast<race::SyncId>(Record.A),
                     static_cast<race::SyncId>(Record.B));
    break;
  case EventKind::LockAcquire:
    if (!CheckTid(Record.T) || !CheckSync(Record.A))
      return false;
    Det.lockAcquired(Record.T, static_cast<race::SyncId>(Record.A),
                     Record.Flag);
    break;
  case EventKind::LockRelease:
    if (!CheckTid(Record.T) || !CheckSync(Record.A))
      return false;
    Det.lockReleased(Record.T, static_cast<race::SyncId>(Record.A),
                     Record.Flag);
    break;
  case EventKind::PushFrame:
    if (!CheckTid(Record.T))
      return false;
    Det.pushFrame(Record.T,
                  Det.makeFrame(T.text(Record.Str1), T.text(Record.Str2),
                                static_cast<uint32_t>(Record.B)));
    break;
  case EventKind::PopFrame:
    if (!CheckTid(Record.T))
      return false;
    if (Det.currentChain(Record.T).empty())
      return fail("pop-frame on empty call chain of goroutine " +
                  std::to_string(Record.T));
    Det.popFrame(Record.T);
    break;
  case EventKind::SetLine:
    if (!CheckTid(Record.T))
      return false;
    Det.setLine(Record.T, static_cast<uint32_t>(Record.A));
    break;
  case EventKind::Read:
    if (!CheckTid(Record.T))
      return false;
    Det.onRead(Record.T, Record.A, nameId(T, Record.Str1));
    break;
  case EventKind::Write:
    if (!CheckTid(Record.T))
      return false;
    Det.onWrite(Record.T, Record.A, nameId(T, Record.Str1));
    break;
  case EventKind::DestroySync:
    if (!CheckTid(Record.T) || !CheckSync(Record.A))
      return false;
    // destroySyncVar is GcMode-independent, so the free-list state (and
    // with it every subsequent NewSync id) matches the capture-time
    // detector no matter which options this replay runs under.
    Det.destroySyncVar(Record.T, static_cast<race::SyncId>(Record.A));
    break;
  case EventKind::ChannelSend:
  case EventKind::ChannelRecv:
  case EventKind::ChannelClose:
  case EventKind::AtomicOp:
    // Pure annotations: no detector transition.
    break;
  }
  return true;
}

race::StrId OfflineDetector::nameId(const Trace &T, TraceStrId Str) {
  if (Str >= NameIds.size())
    return race::NoName;
  if (NameIds[Str] == Unmapped)
    NameIds[Str] = Det.interner().intern(T.text(Str));
  return NameIds[Str];
}

bool OfflineDetector::replay(const Trace &T) {
  // Trace string ids are per trace.
  NameIds.assign(T.Strings.size(), Unmapped);
  for (const TraceRecord &Record : T.Events) {
    if (!apply(T, Record))
      return false;
    ++EventsReplayed;
    obs::inc(MEvents);
  }
  return true;
}

bool OfflineDetector::replayBytes(const std::vector<uint8_t> &Bytes) {
  Trace T;
  TraceReader Reader(Bytes);
  if (!Reader.readAll(T))
    return fail("decode: " + Reader.error());
  return replay(T);
}

std::vector<uint64_t> OfflineDetector::fingerprints() const {
  std::vector<uint64_t> Out;
  Out.reserve(Det.reports().size());
  for (const race::RaceReport &Report : Det.reports())
    Out.push_back(pipeline::raceFingerprint(Det.interner(), Report));
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<uint64_t> trace::replayFingerprints(const Trace &T,
                                                race::DetectorOptions Opts) {
  OfflineDetector Offline(Opts);
  Offline.replay(T);
  return Offline.fingerprints();
}
