//===- bench/bench_isolation.cpp - Process containment benchmark ----------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Measures what PROCESS-level isolation costs and guarantees — the §3.5
// question once tests can die in ways no in-process machinery survives —
// through the persistent worker pool (sweep::pooled):
//
//  1. overhead — fault-free sweep wall clock against the in-process
//     sweep::resilient path, as RATIOS (best of 3 each): a warm pool (a
//     PoolHost that already served the same spec once) and a one-shot
//     sweep::pooled, which also pays for its forks and reaping; plus the
//     PARITY CHECK: {pooled serial, pooled parallel, warm pool} merged
//     results must be bit-identical to the in-process result;
//  2. containment under LETHAL fault rates 0 / 1 / 5 / 20% — worker
//     deaths by class, respawns, completion rate, and the invariant that
//     no non-faulted slot's record is ever lost or altered (checked per
//     slot against a fault-free in-process journal).
//
// Gates (exit nonzero, so CI needs no JSON parsing):
//  * any parity violation;
//  * warm-pool fault-free wall clock > 3.0x in-process, or a warm run
//    that forks (the one-shot ratio is reported, not gated);
//  * at the 5% lethal rate: completion < 0.99 (transient crashers respawn
//    and complete, only chronic ones may quarantine);
//  * any lost/altered non-faulted record at ANY rate.
//
// Results are emitted as one JSON object on stdout; progress to stderr.
//
// Usage: bench_isolation [--smoke] [--out FILE]
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "inject/Fault.h"
#include "rt/Instr.h"
#include "sweep/Pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

using namespace grs;

namespace {

struct BenchConfig {
  uint64_t NumSeeds = 160; // slots per sweep, per lethal rate
  uint32_t MaxAttempts = 3;
  unsigned Threads = 4;
};

/// Schedule-dependent race: the sweeps need real verdict structure for
/// the containment comparison to bite on.
void racyBody() {
  auto X = std::make_shared<rt::Shared<int>>("x", 0);
  rt::Runtime &RT = rt::Runtime::current();
  RT.go("writer", [X] { X->store(1); });
  X->store(2);
}

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

std::string tempJournal(const std::string &Name) {
  return (std::filesystem::temp_directory_path() /
          ("grs-bench-isolation-" + Name + ".ckpt"))
      .string();
}

sweep::PoolOptions makeOptions(const BenchConfig &Cfg, sweep::Runner Body) {
  sweep::PoolOptions PO;
  PO.Base.FirstSeed = 1;
  PO.Base.NumSeeds = Cfg.NumSeeds;
  PO.Base.Threads = Cfg.Threads;
  PO.Base.MaxAttempts = Cfg.MaxAttempts;
  PO.Base.RetryBackoffMicros = 0;
  PO.Base.Body = std::move(Body);
  return PO;
}

/// A fault plan of ONLY process-lethal kinds (equal weights) at \p Rate.
inject::FaultPlan lethalPlan(const BenchConfig &Cfg, double Rate) {
  inject::FaultPlanOptions PO;
  PO.PlanSeed = 2027;
  PO.FirstSeed = 1;
  PO.NumSeeds = Cfg.NumSeeds;
  PO.FaultRate = Rate;
  for (size_t K = 0; K < inject::NumFaultKinds; ++K)
    PO.Weights[K] =
        inject::isLethalFault(static_cast<inject::FaultKind>(K)) ? 1.0 : 0.0;
  return inject::makeFaultPlan(PO);
}

struct RateResult {
  double Rate = 0.0;
  uint64_t PlannedFaults = 0;
  uint64_t ChronicFaults = 0;
  uint64_t WorkerSpawns = 0;
  uint64_t Deaths = 0;
  uint64_t DeathsSignal = 0;
  uint64_t DeathsOom = 0;
  uint64_t Respawns = 0;
  uint64_t Quarantined = 0;
  double CompletionRate = 1.0;
  uint64_t LostNonFaultedSlots = 0;
  double ElapsedMs = 0.0;
};

/// The whole run. Ratios compare best-of-3 fault-free wall clocks over
/// in-process: Ratio for one-shot sweep::pooled, WarmRatio for a warm
/// PoolHost.
struct PoolBench {
  double InProcessMs = 0.0;
  double PooledMs = 0.0;
  double Ratio = 0.0;
  double WarmPooledMs = 0.0;
  double WarmRatio = 0.0;
  bool Parity = true;
  uint64_t WorkerSpawns = 0;
  uint64_t WarmWorkerSpawns = 0;
  std::vector<RateResult> Rates;
};

void emitJson(FILE *Out, const BenchConfig &Cfg, const PoolBench &Pool) {
  std::fprintf(Out,
               "{\n  \"num_seeds\": %llu,\n  \"max_attempts\": %u,\n"
               "  \"threads\": %u,\n"
               "  \"in_process_ms\": %.1f,\n  \"pooled_ms\": %.1f,\n"
               "  \"ratio\": %.2f,\n  \"warm_pooled_ms\": %.1f,\n"
               "  \"warm_ratio\": %.2f,\n  \"parity\": %s,\n"
               "  \"worker_spawns\": %llu,\n  \"warm_worker_spawns\": %llu,\n"
               "  \"lethal_rates\": [\n",
               static_cast<unsigned long long>(Cfg.NumSeeds), Cfg.MaxAttempts,
               Cfg.Threads, Pool.InProcessMs, Pool.PooledMs, Pool.Ratio,
               Pool.WarmPooledMs, Pool.WarmRatio,
               Pool.Parity ? "true" : "false",
               static_cast<unsigned long long>(Pool.WorkerSpawns),
               static_cast<unsigned long long>(Pool.WarmWorkerSpawns));
  for (size_t I = 0; I < Pool.Rates.size(); ++I) {
    const RateResult &R = Pool.Rates[I];
    std::fprintf(
        Out,
        "    {\"rate\": %.2f, \"planned_faults\": %llu, "
        "\"chronic_faults\": %llu, \"worker_spawns\": %llu, "
        "\"deaths\": %llu, \"deaths_signal\": %llu, \"deaths_oom\": %llu, "
        "\"respawns\": %llu, \"quarantined\": %llu, "
        "\"completion_rate\": %.4f, \"lost_nonfaulted_slots\": %llu, "
        "\"elapsed_ms\": %.1f}%s\n",
        R.Rate, static_cast<unsigned long long>(R.PlannedFaults),
        static_cast<unsigned long long>(R.ChronicFaults),
        static_cast<unsigned long long>(R.WorkerSpawns),
        static_cast<unsigned long long>(R.Deaths),
        static_cast<unsigned long long>(R.DeathsSignal),
        static_cast<unsigned long long>(R.DeathsOom),
        static_cast<unsigned long long>(R.Respawns),
        static_cast<unsigned long long>(R.Quarantined), R.CompletionRate,
        static_cast<unsigned long long>(R.LostNonFaultedSlots), R.ElapsedMs,
        I + 1 < Pool.Rates.size() ? "," : "");
  }
  std::fprintf(Out, "  ]\n}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Cfg;
  const char *OutPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--smoke")) {
      Cfg.NumSeeds = 100; // still enough slots for the 1% rate to bite
    } else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: bench_isolation [--smoke] [--out FILE]\n");
      return 2;
    }
  }
  if (!sweep::pooledAvailable()) {
    std::fprintf(stderr, "bench_isolation: no fork() + shared memory on this "
                         "platform; nothing to measure\n");
    return 0;
  }

  int Status = 0;
  PoolBench Pool;

  //===--------------------------------------------------------------------===//
  // 1. Fault-free overhead, best of 3 each. The gate is the warm pool: a
  //    host that already served the same spec once runs it again without
  //    forking, so its floor is the shm round-trip, not fork+exec — the
  //    acceptance bar is 3x the in-process sweep. One-shot sweep::pooled
  //    also pays for forking and reaping its workers; its ratio is
  //    reported, not gated. Parity against the in-process result at 1 and
  //    Threads workers, one-shot and warm.
  //===--------------------------------------------------------------------===//
  sweep::PoolOptions PoolBase = makeOptions(Cfg, corpus::hostBody(racyBody));
  sweep::PoolHostOptions WarmOpts;
  WarmOpts.Workers = Cfg.Threads;
  WarmOpts.Resolve = [Base = PoolBase.Base](const uint8_t *, size_t,
                                            sweep::ResilientOptions &Out) {
    Out = Base;
    return true;
  };
  sweep::PoolHost WarmHost(std::move(WarmOpts));
  sweep::PoolRunRequest WarmJob;
  WarmHost.run(WarmJob); // forks the workers the timed runs reuse

  sweep::ResilientResult InProcess;
  Pool.InProcessMs = 1e300;
  Pool.PooledMs = 1e300;
  Pool.WarmPooledMs = 1e300;
  sweep::PoolResult PoolParallel;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto StartRep = std::chrono::steady_clock::now();
    InProcess = sweep::resilient(PoolBase.Base);
    Pool.InProcessMs = std::min(Pool.InProcessMs, elapsedMs(StartRep));
    StartRep = std::chrono::steady_clock::now();
    PoolParallel = sweep::pooled(PoolBase);
    Pool.PooledMs = std::min(Pool.PooledMs, elapsedMs(StartRep));
    Pool.Parity = Pool.Parity && PoolParallel.Res == InProcess;
    StartRep = std::chrono::steady_clock::now();
    sweep::PoolResult Warm = WarmHost.run(WarmJob);
    Pool.WarmPooledMs = std::min(Pool.WarmPooledMs, elapsedMs(StartRep));
    Pool.WarmWorkerSpawns += Warm.Stats.WorkerSpawns;
    Pool.Parity = Pool.Parity && Warm.Res == InProcess;
  }
  WarmHost.shutdown();
  Pool.Ratio =
      Pool.InProcessMs > 0.0 ? Pool.PooledMs / Pool.InProcessMs : 0.0;
  Pool.WarmRatio =
      Pool.InProcessMs > 0.0 ? Pool.WarmPooledMs / Pool.InProcessMs : 0.0;
  Pool.WorkerSpawns = PoolParallel.Stats.WorkerSpawns;

  sweep::PoolOptions PoolSerial = PoolBase;
  PoolSerial.Base.Threads = 1;
  Pool.Parity = Pool.Parity && sweep::pooled(PoolSerial).Res == InProcess;
  if (!Pool.Parity) {
    std::fprintf(stderr, "POOL PARITY VIOLATION: fault-free pooled "
                         "results diverged from in-process\n");
    Status = 1;
  }
  if (Pool.WarmRatio > 3.0) {
    std::fprintf(stderr,
                 "POOL OVERHEAD VIOLATION: warm pool %.1fms is %.2fx "
                 "in-process %.1fms (gate: 3.0x)\n",
                 Pool.WarmPooledMs, Pool.WarmRatio, Pool.InProcessMs);
    Status = 1;
  }
  if (Pool.WarmWorkerSpawns != 0) {
    std::fprintf(stderr,
                 "POOL WARM-RUN VIOLATION: a warm pool forked %llu "
                 "workers (gate: 0)\n",
                 static_cast<unsigned long long>(Pool.WarmWorkerSpawns));
    Status = 1;
  }
  std::fprintf(stderr,
               "pool overhead: in-process %.1fms, warm pool %.1fms (%.2fx, "
               "%llu forks), one-shot pooled %.1fms (%.2fx, %llu workers, "
               "not gated), parity %s\n",
               Pool.InProcessMs, Pool.WarmPooledMs, Pool.WarmRatio,
               static_cast<unsigned long long>(Pool.WarmWorkerSpawns),
               Pool.PooledMs, Pool.Ratio,
               static_cast<unsigned long long>(Pool.WorkerSpawns),
               Pool.Parity ? "ok" : "BROKEN");

  //===--------------------------------------------------------------------===//
  // 2. Containment under lethal fault rates. Ground truth: the fault-free
  //    in-process journal, compared per slot.
  //===--------------------------------------------------------------------===//
  std::string BaselinePath = tempJournal("baseline");
  std::remove(BaselinePath.c_str());
  sweep::ResilientOptions Baseline = PoolBase.Base;
  Baseline.CheckpointPath = BaselinePath;
  sweep::ResilientResult BaselineResult = sweep::resilient(Baseline);
  sweep::CheckpointLoad BaselineLoad;
  std::string Error;
  if (!BaselineResult.CheckpointError.empty() ||
      !sweep::loadCheckpoint(BaselinePath, BaselineLoad, Error)) {
    std::fprintf(stderr, "bench_isolation: baseline journal failed: %s%s\n",
                 BaselineResult.CheckpointError.c_str(), Error.c_str());
    return 1;
  }
  std::map<uint64_t, sweep::SlotRecord> BaselineBySlot;
  for (const sweep::SlotRecord &R : BaselineLoad.Records)
    BaselineBySlot[R.Slot] = R;
  std::remove(BaselinePath.c_str());

  for (double Rate : {0.0, 0.01, 0.05, 0.20}) {
    inject::FaultPlan Plan = lethalPlan(Cfg, Rate);
    std::string Path = tempJournal("pool-rate");
    std::remove(Path.c_str());
    sweep::PoolOptions PoolIO =
        makeOptions(Cfg, inject::instrumentedRunner(racyBody, Plan));
    PoolIO.Base.CheckpointPath = Path;
    auto Start = std::chrono::steady_clock::now();
    sweep::PoolResult R = sweep::pooled(PoolIO);

    RateResult Row;
    Row.Rate = Rate;
    Row.ElapsedMs = elapsedMs(Start);
    Row.PlannedFaults = Plan.size();
    for (const auto &[Seed, Spec] : Plan.BySeed)
      Row.ChronicFaults += Spec.LethalAttempts == UINT32_MAX;
    Row.WorkerSpawns = R.Stats.WorkerSpawns;
    Row.Deaths = R.Stats.deaths();
    Row.DeathsSignal =
        R.Stats.DeathsByClass[static_cast<size_t>(sweep::FaultClass::Signal)];
    Row.DeathsOom =
        R.Stats.DeathsByClass[static_cast<size_t>(sweep::FaultClass::OomKill)];
    Row.Respawns = R.Stats.Respawns;
    Row.Quarantined = R.Res.Quarantined.size();
    Row.CompletionRate =
        static_cast<double>(Cfg.NumSeeds - Row.Quarantined) /
        static_cast<double>(Cfg.NumSeeds);

    // The containment invariant: every non-faulted slot's record is
    // bit-identical to the fault-free baseline's.
    sweep::CheckpointLoad Load;
    if (R.Res.CheckpointError.empty() &&
        sweep::loadCheckpoint(Path, Load, Error)) {
      std::map<uint64_t, sweep::SlotRecord> BySlot;
      for (const sweep::SlotRecord &Rec : Load.Records)
        BySlot[Rec.Slot] = Rec;
      for (const auto &[Slot, BaseRec] : BaselineBySlot) {
        if (Plan.faulted(BaseRec.Seed))
          continue;
        auto It = BySlot.find(Slot);
        if (It == BySlot.end() || !(It->second == BaseRec))
          ++Row.LostNonFaultedSlots;
      }
    } else {
      std::fprintf(stderr,
                   "bench_isolation: pool journal failed at rate %.2f: "
                   "%s%s\n",
                   Rate, R.Res.CheckpointError.c_str(), Error.c_str());
      Status = 1;
    }
    std::remove(Path.c_str());

    if (Row.LostNonFaultedSlots) {
      std::fprintf(stderr,
                   "POOL CONTAINMENT VIOLATION: rate %.2f lost %llu "
                   "non-faulted slots\n",
                   Rate,
                   static_cast<unsigned long long>(Row.LostNonFaultedSlots));
      Status = 1;
    }
    if (Rate == 0.05 && Row.CompletionRate < 0.99) {
      std::fprintf(
          stderr,
          "POOL COMPLETION VIOLATION: rate 0.05 completed %.4f < 0.99\n",
          Row.CompletionRate);
      Status = 1;
    }
    std::fprintf(stderr,
                 "pool rate %.2f: %llu faults (%llu chronic), %llu deaths, "
                 "%llu respawns, completion %.4f, %.0fms\n",
                 Rate, static_cast<unsigned long long>(Row.PlannedFaults),
                 static_cast<unsigned long long>(Row.ChronicFaults),
                 static_cast<unsigned long long>(Row.Deaths),
                 static_cast<unsigned long long>(Row.Respawns),
                 Row.CompletionRate, Row.ElapsedMs);
    Pool.Rates.push_back(Row);
  }

  emitJson(stdout, Cfg, Pool);
  if (OutPath) {
    if (FILE *F = std::fopen(OutPath, "w")) {
      emitJson(F, Cfg, Pool);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "bench_isolation: cannot write %s\n", OutPath);
      return 2;
    }
  }
  return Status;
}
