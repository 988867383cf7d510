//===- sweep/Resilient.cpp - Hardened sweep execution ---------------------===//

#include "sweep/Resilient.h"

#include "support/Hash.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

using namespace grs;
using namespace grs::sweep;

uint64_t sweep::resilientOptionsHash(const ResilientOptions &Opts) {
  support::Fnv1a H;
  H.addU64(Opts.FirstSeed).addU64(Opts.NumSeeds).addU64(Opts.MaxAttempts);
  uint64_t PreemptBits = 0;
  static_assert(sizeof(PreemptBits) == sizeof(Opts.Run.PreemptProbability));
  std::memcpy(&PreemptBits, &Opts.Run.PreemptProbability,
              sizeof(PreemptBits));
  H.addU64(PreemptBits);
  H.addU64(Opts.Run.MaxSteps);
  H.addU64(Opts.Run.DetectRaces ? 1 : 0);
  H.addU64(Opts.Run.WatchdogMillis);
  // Salt only when set: zero keeps every pre-service journal hash (and
  // the cross-executor resume contract) byte-identical.
  if (Opts.OptionsSalt)
    H.addU64(Opts.OptionsSalt);
  return H.digest();
}

FaultClass sweep::classifyRunFault(const rt::RunResult &Run) {
  if (Run.WatchdogFired)
    return FaultClass::Watchdog;
  if (!Run.ForeignExceptions.empty())
    return FaultClass::ForeignException;
  if (Run.StepLimitHit)
    return FaultClass::StepLimit;
  return FaultClass::None;
}

namespace {

std::string faultDetail(const rt::RunResult &Run, FaultClass F) {
  switch (F) {
  case FaultClass::Watchdog:
    return Run.WatchdogDetail;
  case FaultClass::ForeignException:
    return Run.ForeignExceptions.front();
  case FaultClass::StepLimit:
    return "step limit hit";
  case FaultClass::None:
  case FaultClass::Signal:
  case FaultClass::OomKill:
  case FaultClass::Rlimit:
  case FaultClass::PartialExit:
    break; // process-death classes never come from a RunResult
  }
  return "";
}

} // namespace

SlotRecord sweep::runResilientSlot(const ResilientOptions &Opts,
                                   uint64_t Slot, uint32_t FirstAttempt,
                                   obs::TimelineTrack *Track) {
  SlotRecord R;
  R.Slot = Slot;
  R.Seed = Opts.FirstSeed + Slot;
  obs::TimelineScope SlotSpan =
      Track ? obs::TimelineScope(Track, "slot",
                                 "\"slot\":" + std::to_string(Slot) +
                                     ",\"seed\":" + std::to_string(R.Seed))
            : obs::TimelineScope();
  uint32_t MaxAttempts = Opts.MaxAttempts ? Opts.MaxAttempts : 1;
  for (uint32_t Attempt = FirstAttempt ? FirstAttempt : 1;; ++Attempt) {
    rt::RunOptions RunOpts = Opts.Run;
    RunOpts.Seed = R.Seed;
    RunOpts.Attempt = Attempt;
    RunOpts.TimelineTrack = Track;
    obs::TimelineScope AttemptSpan =
        Track ? obs::TimelineScope(Track, "attempt",
                                   "\"attempt\":" + std::to_string(Attempt))
              : obs::TimelineScope();
    // Per-run report dedup in first-occurrence order — the shape slot-
    // order merging needs to replay the serial sweep's aggregation.
    std::vector<SlotRecord::Report> Reports;
    std::map<uint64_t, size_t> ReportIndex;
    RunOpts.OnReport = [&](const race::Detector &D,
                           const race::RaceReport &Report) {
      uint64_t Fp = pipeline::raceFingerprint(D.interner(), Report);
      auto [It, Inserted] = ReportIndex.try_emplace(Fp, Reports.size());
      if (Inserted)
        Reports.push_back(
            {Fp, 1, race::reportToString(D.interner(), Report)});
      else
        ++Reports[It->second].Occurrences;
    };
    rt::RunResult Run = Opts.Body(RunOpts);
    R.Attempts = Attempt;
    FaultClass F = classifyRunFault(Run);
    if (F == FaultClass::None) {
      R.Fault = FaultClass::None;
      R.FaultDetail.clear();
      R.Leaked = !Run.LeakedGoroutines.empty();
      R.Panicked = !Run.Panics.empty();
      R.Deadlocked = Run.Deadlocked;
      R.RaceCount = Run.RaceCount;
      R.Reports = std::move(Reports);
      return R;
    }
    R.Fault = F;
    R.FaultDetail = faultDetail(Run, F);
    AttemptSpan.end();
    if (Attempt >= MaxAttempts) {
      if (Track)
        Track->instant("quarantine",
                       "\"slot\":" + std::to_string(Slot) + ",\"class\":\"" +
                           faultClassName(F) + "\"");
      R.Quarantined = true;
      return R;
    }
    if (Track)
      Track->instant("retry", "\"slot\":" + std::to_string(Slot) +
                                  ",\"class\":\"" + faultClassName(F) + "\"");
    if (Opts.RetryBackoffMicros)
      std::this_thread::sleep_for(std::chrono::microseconds(
          Opts.RetryBackoffMicros << (Attempt - 1)));
  }
}

void sweep::mergeSlotRecords(const std::vector<SlotRecord> &Slots,
                             ResilientResult &Result) {
  for (const SlotRecord &R : Slots) {
    if (R.Quarantined) {
      Result.Quarantined.push_back(R);
      continue;
    }
    pipeline::SweepResult &S = Result.Sweep;
    ++S.SeedsRun;
    S.SeedsWithRaces += R.RaceCount > 0;
    S.SeedsWithLeaks += R.Leaked;
    S.SeedsWithPanics += R.Panicked;
    S.SeedsDeadlocked += R.Deadlocked;
    S.TotalReports += R.RaceCount;
    for (const SlotRecord::Report &Rep : R.Reports) {
      auto &Finding = S.Findings[Rep.Fp];
      Finding.Occurrences += Rep.Occurrences;
      if (Finding.SampleReport.empty())
        Finding.SampleReport = Rep.Sample;
    }
  }
}

void sweep::openResilientCheckpoint(const ResilientOptions &Opts,
                                    CheckpointWriter &Writer,
                                    std::vector<SlotRecord> &Slots,
                                    std::vector<uint8_t> &Done,
                                    ResilientResult &Result) {
  size_t N = static_cast<size_t>(Opts.NumSeeds);
  CheckpointMeta Meta;
  Meta.FirstSeed = Opts.FirstSeed;
  Meta.NumSeeds = Opts.NumSeeds;
  Meta.OptionsHash = resilientOptionsHash(Opts);
  if (!Opts.CheckpointPath.empty()) {
    bool Fresh = true;
    if (Opts.Resume) {
      CheckpointLoad Load;
      std::string Error;
      if (loadCheckpoint(Opts.CheckpointPath, Load, Error)) {
        if (Load.Meta == Meta) {
          for (SlotRecord &R : Load.Records) {
            // First record per slot wins; a crash can have appended a
            // slot at most once since appends happen post-completion.
            if (R.Slot < N && !Done[R.Slot]) {
              Done[R.Slot] = 1;
              Slots[R.Slot] = std::move(R);
              ++Result.ResumedSlots;
            }
          }
          Fresh = false;
          if (!Writer.reopen(Opts.CheckpointPath, Load.DroppedTailBytes))
            Result.CheckpointError =
                "cannot reopen journal for append: " + Opts.CheckpointPath;
        } else {
          // A journal for a DIFFERENT recipe: refuse to touch it.
          Result.CheckpointError =
              "checkpoint meta mismatch (different sweep recipe); "
              "journaling disabled";
        }
      }
      // Unreadable/missing file: fall through to a fresh journal.
    }
    if (Fresh && Result.CheckpointError.empty()) {
      if (!Writer.create(Opts.CheckpointPath, Meta))
        Result.CheckpointError =
            "cannot create journal: " + Opts.CheckpointPath;
    }
  }
}

ResilientResult sweep::resilient(const ResilientOptions &Opts) {
  ResilientResult Result;
  size_t N = static_cast<size_t>(Opts.NumSeeds);
  std::vector<SlotRecord> Slots(N);
  std::vector<uint8_t> Done(N, 0);
  CheckpointWriter Writer;
  openResilientCheckpoint(Opts, Writer, Slots, Done, Result);

  //===--------------------------------------------------------------------===//
  // Execute the missing slots.
  //===--------------------------------------------------------------------===//
  unsigned Threads =
      Opts.Threads ? Opts.Threads : std::thread::hardware_concurrency();
  if (Threads == 0)
    Threads = 1;
  if (Threads > N)
    Threads = static_cast<unsigned>(N ? N : 1);

  std::atomic<uint64_t> Next{0};
  std::mutex JournalMutex;
  std::vector<uint8_t> Executed(N, 0);
  // Worker tracks are created up front so exported track order is
  // deterministic regardless of worker start order.
  std::vector<obs::TimelineTrack *> Tracks(Threads, nullptr);
  if (Opts.Timeline)
    for (unsigned I = 0; I < Threads; ++I)
      Tracks[I] =
          Opts.Timeline->track("resilient-worker-" + std::to_string(I));
  auto Worker = [&](unsigned Wid) {
    for (;;) {
      if (Opts.CancelFlag &&
          Opts.CancelFlag->load(std::memory_order_relaxed))
        break; // cancelled: claim nothing further, journal stays resumable
      uint64_t Slot = Next.fetch_add(1, std::memory_order_relaxed);
      if (Slot >= N)
        break;
      if (Done[Slot])
        continue; // satisfied from the checkpoint
      SlotRecord R = runResilientSlot(Opts, Slot, 1, Tracks[Wid]);
      std::lock_guard<std::mutex> Lock(JournalMutex);
      if (Writer.isOpen() && !Writer.append(R))
        Result.CheckpointError =
            "journal append failed; checkpointing stopped";
      if (Opts.OnSlotDone)
        Opts.OnSlotDone(R);
      Slots[Slot] = std::move(R);
      Executed[Slot] = 1;
    }
  };
  if (Threads <= 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (unsigned I = 0; I < Threads; ++I)
      Pool.emplace_back(Worker, I);
    for (std::thread &T : Pool)
      T.join();
  }
  Writer.close();

  //===--------------------------------------------------------------------===//
  // Serial merge + instruments.
  //===--------------------------------------------------------------------===//
  for (size_t I = 0; I < N; ++I)
    if (!Done[I] && !Executed[I])
      ++Result.UnfinishedSlots;
  if (Result.UnfinishedSlots == 0) {
    mergeSlotRecords(Slots, Result);
  } else {
    // Cancelled early: merge only what actually ran — default-constructed
    // records for unclaimed slots must not count as clean seeds.
    std::vector<SlotRecord> Finished;
    Finished.reserve(N - static_cast<size_t>(Result.UnfinishedSlots));
    for (size_t I = 0; I < N; ++I)
      if (Done[I] || Executed[I])
        Finished.push_back(Slots[I]);
    mergeSlotRecords(Finished, Result);
  }
  for (size_t I = 0; I < N; ++I)
    if (Executed[I])
      Result.Retries += Slots[I].Attempts - 1;

  if (obs::Registry *Reg = Opts.Metrics) {
    obs::inc(Reg->counter("grs_resilience_runs_total"),
             N - static_cast<size_t>(Result.ResumedSlots) -
                 static_cast<size_t>(Result.UnfinishedSlots));
    obs::inc(Reg->counter("grs_resilience_retries_total"), Result.Retries);
    obs::inc(Reg->counter("grs_resilience_resumed_slots_total"),
             Result.ResumedSlots);
    uint64_t ByClass[NumFaultClasses] = {};
    for (const SlotRecord &R : Result.Quarantined)
      ++ByClass[static_cast<size_t>(R.Fault)];
    for (size_t C = 1; C < NumFaultClasses; ++C)
      if (ByClass[C])
        obs::inc(Reg->counter(
                     "grs_resilience_quarantined_total",
                     {{"class", faultClassName(static_cast<FaultClass>(C))}}),
                 ByClass[C]);
    if (!Opts.CheckpointPath.empty() && Result.CheckpointError.empty())
      obs::inc(Reg->counter("grs_resilience_checkpoint_records_total"),
               N - static_cast<size_t>(Result.ResumedSlots) -
                   static_cast<size_t>(Result.UnfinishedSlots));
  }
  return Result;
}

ResilientOptions sweep::resilientFrom(const pipeline::SweepOptions &S,
                                      Runner Body) {
  ResilientOptions Opts;
  Opts.FirstSeed = S.FirstSeed;
  Opts.NumSeeds = S.NumSeeds;
  Opts.Threads = 1;
  Opts.Run = S.Run;
  Opts.Body = std::move(Body);
  return Opts;
}
