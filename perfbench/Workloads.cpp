//===- perfbench/Workloads.cpp - The benchmark's four workloads ----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Each workload stresses a different mix of layers (BENCHMARK.json gives
// the one-line reasons):
//   pf-grid        the paper's experiment (E5): PF against the c-partial
//                  family; adversary bookkeeping, fit search, compaction.
//   fleet-churn    ServiceFleet session churn, one flush per call; no
//                  adversary and almost no compaction.
//   realloc-moves  the reallocation family, where moves are ~59% of all
//                  placements; Heap::move and the realloc ledger.
//   trace-replay   recorded pcbtrace streams through TraceReader and the
//                  BudgetController spend gate.
//
//===----------------------------------------------------------------------===//

#include "Cells.h"

#include "adversary/CohenPetrankProgram.h"
#include "driver/Execution.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"
#include "realloc/CostObliviousAllocator.h"
#include "realloc/ReallocationLedger.h"
#include "realloc/UpdateProgram.h"
#include "service/ServiceFleet.h"
#include "support/Random.h"
#include "trace/BudgetController.h"
#include "trace/TraceReader.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceRun.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

using namespace pcb;
using namespace pcbbench;

namespace {

std::string fmt(const char *Format, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Format, V);
  return Buf;
}

void copyProfile(const Profiler &P, CellRecord &Out) {
  for (unsigned S = 0; S != Profiler::NumSections; ++S) {
    Out.Profile.push_back(P.section(Profiler::Section(S)).Calls);
    Out.Profile.push_back(P.section(Profiler::Section(S)).Nanos);
  }
  for (unsigned C = 0; C != Profiler::NumCounters; ++C)
    Out.Profile.push_back(P.counter(Profiler::Counter(C)));
}

uint64_t nanos(const Profiler &P, Profiler::Section S) {
  return P.section(S).Nanos;
}

uint64_t heapNanos(const Profiler &P) {
  return nanos(P, Profiler::SecHeapPlace) + nanos(P, Profiler::SecHeapFree) +
         nanos(P, Profiler::SecHeapMove);
}

void addHeapStats(const MemoryManager &MM, CellRecord &Out) {
  const HeapStats &S = MM.heap().stats();
  Out.Stats[StEvents] += S.NumAllocations + S.NumFrees + S.NumMoves;
  Out.Stats[StHighWater] = std::max(Out.Stats[StHighWater], S.HighWaterMark);
  Out.Stats[StMovedWords] += S.MovedWords;
  if (!MM.ledger().isUnlimited())
    Out.Stats[StBudgetWords] += MM.ledger().budgetWords();
}

/// A cell driven by pcb::Execution: a program against one manager.
class ExecCell : public CellState {
public:
  using CellState::CellState;

  void run(bool Traced, CellRecord &Out) override {
    TimedProgram Shim(*Prog, Out, Traced);
    Execution::Options EO;
    EO.MaxSteps = UINT64_MAX; // programs bound their own length
    Execution E(*MM, Shim, M, EO);
    if (Ctrl)
      attachController(E, *MM, *Ctrl);
    Profiler Prof;
    {
      ProfilerScope Scope(Traced ? &Prof : nullptr);
      auto Start = Clock::now();
      Shim.Ctx.begin(Start);
      for (bool More = true; More;) {
        if (!Traced) {
          More = E.runStep();
          continue;
        }
        auto StepStart = Clock::now();
        More = E.runStep();
        Out.Stats[StDriverNs] += nanosSince(StepStart);
      }
      auto End = Clock::now();
      Shim.Ctx.end(End);
      Out.Stats[StRunNs] = nanosBetween(Start, End);
    }
    addHeapStats(*MM, Out);
    if (auto *Bucket = dynamic_cast<const CostObliviousAllocator *>(MM.get()))
      Out.Stats[StBackfills] = Bucket->backfills();
    if (Traced) {
      copyProfile(Prof, Out);
      partition(Prof, Out);
    }
    finish(E.result(), Out);
  }

protected:
  /// Builds the result row and checks the cell's invariants.
  virtual void finish(const ExecutionResult &R, CellRecord &Out) = 0;

  static std::string execRow(const ExecutionResult &R) {
    std::ostringstream OS;
    OS << "hs=" << R.HeapSize << " peak_live=" << R.PeakLiveWords
       << " allocated=" << R.TotalAllocatedWords << " moved=" << R.MovedWords
       << " allocs=" << R.NumAllocations << " frees=" << R.NumFrees
       << " moves=" << R.NumMoves << " steps=" << R.Steps;
    return OS.str();
  }

  Heap H;
  std::unique_ptr<MemoryManager> MM;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<BudgetController> Ctrl;
  uint64_t M = 0;

private:
  /// Self time per layer. The runner span holds the driver's runStep
  /// calls, which hold Program::step, which holds the manager calls
  /// (and the trace reader); onObjectMoved and the heap sections nest
  /// inside the manager calls.
  static void partition(const Profiler &P, CellRecord &Out) {
    int64_t W = int64_t(Out.Stats[StRunNs]);
    int64_t D = int64_t(Out.Stats[StDriverNs]);
    int64_t A = int64_t(Out.Stats[StProgStepNs]);
    int64_t O = int64_t(Out.Stats[StOnMovedNs]);
    int64_t X = int64_t(Out.Stats[StAllocNs] + Out.Stats[StFreeNs]);
    int64_t H = int64_t(heapNanos(P));
    int64_t T = int64_t(nanos(P, Profiler::SecTraceRead));
    Out.Self[LyUnattributed] = W - D;
    Out.Self[LyDriver] = D - A;
    Out.Self[LyAdversary] = A - X - T + O;
    Out.Self[LyTrace] = T;
    Out.Self[LyMm] = X - O - H;
    Out.Self[LyHeap] = H;
  }
};

class PfCell : public ExecCell {
public:
  PfCell(uint64_t M, uint64_t N, double C, const std::string &Policy)
      : ExecCell("c=" + fmt("%g", C) + "/" + Policy, /*SeedFree=*/true),
        Reference(Policy == "sliding-unlimited") {
    this->M = M;
    MM = createManager(Policy, H, Reference ? 0.0 : C, /*LiveBound=*/M);
    if (!MM)
      throw std::runtime_error("unknown policy " + Policy);
    auto PF = std::make_unique<CohenPetrankProgram>(M, N, C);
    TargetH = PF->targetWasteFactor();
    Prog = std::move(PF);
  }

private:
  void finish(const ExecutionResult &R, CellRecord &Out) override {
    Out.Row = execRow(R);
    // Theorem 1: every c-partial manager needs HS >= M * h(M, n, c). The
    // unlimited slider is not c-partial and is exempt.
    if (!Reference && R.wasteFactor(M) + 1e-9 < TargetH)
      Out.fail("Theorem 1: HS=" + std::to_string(R.HeapSize) + " < M*h=" +
               fmt("%.1f", double(M) * TargetH));
  }

  bool Reference;
  double TargetH = 1.0;
};

class ReallocCell : public ExecCell {
public:
  ReallocCell(uint64_t M, unsigned LogN, double C, uint64_t Steps,
              uint64_t Seed, const std::string &ProgName,
              const std::string &Policy)
      : ExecCell(ProgName + "/" + Policy, ProgName == "cohen-petrank") {
    this->M = M;
    MM = createManager(Policy, H, C, /*LiveBound=*/M);
    if (!MM)
      throw std::runtime_error("unknown policy " + Policy);
    if (SeedFree) {
      Prog = std::make_unique<CohenPetrankProgram>(M, uint64_t(1) << LogN, C);
      return;
    }
    for (UpdateProgram::Shape S :
         {UpdateProgram::Shape::FillDrain, UpdateProgram::Shape::Alternating,
          UpdateProgram::Shape::Comb, UpdateProgram::Shape::SizeProfile,
          UpdateProgram::Shape::Mix}) {
      if (ProgName != std::string("update-") + UpdateProgram::shapeName(S))
        continue;
      UpdateProgram::Options O;
      O.Steps = Steps;
      O.MaxLogSize = LogN;
      O.Seed = Seed;
      O.S = S;
      Prog = std::make_unique<UpdateProgram>(M, O);
    }
    if (!Prog)
      throw std::runtime_error("unknown program " + ProgName);
  }

private:
  void finish(const ExecutionResult &R, CellRecord &Out) override {
    const ReallocationLedger *RL = MM->reallocationLedger();
    double Worst = RL ? RL->maxPrefixRatio() : 0.0;
    Out.Row = execRow(R) + " worst_prefix=" + fmt("%.6f", Worst);
    if (RL && !RL->holds())
      Out.fail("overhead bound exceeded: worst prefix " + fmt("%.6f", Worst));
  }
};

class TraceCell : public ExecCell {
public:
  TraceCell(const std::string &TraceName,
            std::shared_ptr<const std::string> Bytes, uint64_t NumOps,
            const std::string &Policy, const ControllerSpec &Spec, double C)
      : ExecCell(TraceName + "/" + Policy + "/" + Spec.Name,
                 /*SeedFree=*/false),
        Bytes(std::move(Bytes)), NumOps(NumOps), IS(*this->Bytes),
        Reader(IS) {
    // Streaming: the live bound is unknown up front (as in trace-run).
    M = uint64_t(1) << 62;
    MM = createManager(Policy, H, C, /*LiveBound=*/0);
    Ctrl = createController(Spec);
    if (!MM || !Ctrl)
      throw std::runtime_error("bad trace cell " + Name);
    Prog = std::make_unique<StreamingTraceProgram>(Reader);
  }

  void run(bool Traced, CellRecord &Out) override {
    ExecCell::run(Traced, Out);
    if (!Traced)
      return;
    // The parser alone, over a fresh copy of the same bytes.
    std::istringstream Fresh(*Bytes);
    TraceReader R(Fresh);
    MallocOp Op;
    auto Start = Clock::now();
    while (R.next(Op))
      ;
    Out.Stats[StParseNs] = nanosSince(Start);
  }

private:
  void finish(const ExecutionResult &R, CellRecord &Out) override {
    std::ostringstream OS;
    OS << execRow(R) << " grants=" << Ctrl->grants()
       << " denials=" << Ctrl->denials();
    Out.Row = OS.str();
    if (Reader.failed())
      Out.fail("trace reader: " + Reader.error());
    else if (Reader.opsRead() != NumOps)
      Out.fail("streamed " + std::to_string(Reader.opsRead()) + " of " +
               std::to_string(NumOps) + " ops");
  }

  std::shared_ptr<const std::string> Bytes;
  uint64_t NumOps;
  std::istringstream IS;
  TraceReader Reader;
};

/// A ServiceFleet drained one flush at a time, arenas in round robin.
class FleetCell : public CellState {
public:
  explicit FleetCell(const FleetOptions &FO)
      : CellState("arenas=" + std::to_string(FO.NumArenas),
                  /*SeedFree=*/false),
        Fleet(std::make_unique<ServiceFleet>(FO)),
        NumSessions(FO.NumSessions) {}

  void run(bool Traced, CellRecord &Out) override {
    unsigned N = Fleet->numArenas();
    std::vector<char> Drained(N, 0);
    Profiler Prof;
    {
      ProfilerScope Scope(Traced ? &Prof : nullptr);
      auto Start = Clock::now();
      for (unsigned Left = N; Left != 0;) {
        for (unsigned A = 0; A != N; ++A) {
          if (Drained[A])
            continue;
          auto SliceStart = Clock::now();
          bool Done = Fleet->shard(A).runSlice(1);
          uint64_t Ns = nanosSince(SliceStart);
          Out.Stats[StDriverNs] += Ns;
          Out.BlockNs.push_back(clampNs(Ns));
          if (Done) {
            Drained[A] = 1;
            --Left;
          }
        }
      }
      Out.Stats[StRunNs] = nanosSince(Start);
    }
    for (unsigned A = 0; A != N; ++A) {
      const ArenaShard &S = Fleet->shard(A);
      addHeapStats(S.manager(), Out);
      Out.Stats[StOpsApplied] += S.opsApplied();
      if (S.heap().stats().LiveWords != 0)
        Out.fail("arena " + std::to_string(A) + " drained with live words");
    }
    FleetReport R = Fleet->report();
    std::ostringstream OS;
    OS << "sessions=" << R.TotalSessions
       << " footprint=" << R.TotalFootprintWords
       << " p99_footprint=" << R.P99FootprintWords
       << " frag_p50=" << fmt("%.6f", R.P50Fragmentation)
       << " frag_p99=" << fmt("%.6f", R.P99Fragmentation)
       << " util=" << fmt("%.6f", R.MeanUtilization)
       << " moved=" << R.TotalMovedWords << " flushes=" << R.TotalFlushes
       << " ops=" << R.TotalOpsApplied;
    Out.Row = OS.str();
    if (R.TotalSessions != NumSessions)
      Out.fail("retired " + std::to_string(R.TotalSessions) + " of " +
               std::to_string(NumSessions) + " sessions");
    if (Traced) {
      copyProfile(Prof, Out);
      partition(Prof, Out);
    }
  }

private:
  /// Self time per layer. runSlice holds the flush section, which holds
  /// the heap sections and compaction (which holds the moves). What the
  /// flush does besides — the manager's placement search, fragmentation
  /// sampling, request bookkeeping — has no span of its own.
  static void partition(const Profiler &P, CellRecord &Out) {
    int64_t W = int64_t(Out.Stats[StRunNs]);
    int64_t D = int64_t(Out.Stats[StDriverNs]);
    int64_t F = int64_t(nanos(P, Profiler::SecServeFlush));
    int64_t K = int64_t(nanos(P, Profiler::SecCompaction));
    int64_t Move = int64_t(nanos(P, Profiler::SecHeapMove));
    int64_t H = int64_t(heapNanos(P));
    Out.Self[LyService] = D - F;
    Out.Self[LyMm] = K - Move;
    Out.Self[LyHeap] = H;
    Out.Self[LyUnattributed] = (W - D) + (F - (H - Move) - K);
  }

  std::unique_ptr<ServiceFleet> Fleet;
  uint64_t NumSessions;
};

/// The self-test's planted failure.
class AbortCell : public CellState {
public:
  AbortCell() : CellState("planted-abort", /*SeedFree=*/true) {}
  void run(bool, CellRecord &) override { std::abort(); }
};

void buildPfGrid(uint64_t Seed, Size S,
                 std::vector<std::unique_ptr<CellState>> &Cells) {
  bool Tiny = S == Size::Tiny;
  uint64_t M = uint64_t(1) << (Tiny ? 10 : 16);
  uint64_t N = uint64_t(1) << (Tiny ? 5 : 9);
  std::vector<double> Cs = Tiny ? std::vector<double>{10, 50}
                                : std::vector<double>{10, 25, 50, 75, 100};
  const char *Policies[] = {"first-fit",      "best-fit",   "segregated-fit",
                            "chunked",        "meshing",    "evacuating",
                            "hybrid",         "sliding",    "paged-space",
                            "bump-compactor", "sliding-unlimited"};
  for (double C : Cs)
    for (const char *Policy : Policies)
      Cells.push_back(std::make_unique<PfCell>(M, N, C, Policy));
  // PF is deterministic in (M, n, c); the seed only orders the cells.
  Rng R(Seed);
  for (size_t I = Cells.size(); I > 1; --I)
    std::swap(Cells[I - 1], Cells[R.nextBelow(I)]);
}

void buildFleetChurn(uint64_t Seed, Size S,
                     std::vector<std::unique_ptr<CellState>> &Cells) {
  bool Tiny = S == Size::Tiny;
  FleetOptions FO;
  // 25K sessions a fleet keeps a pass under two seconds, so a run holds
  // ten or more passes for the per-block minimum to choose from (with 100K
  // a pass took five seconds and the run-to-run spread tripled).
  FO.NumSessions = Tiny ? 300 : 25000;
  FO.Threads = 1;
  FO.Shard.Policy = "evacuating";
  FO.Shard.C = 50.0;
  FO.Shard.BatchSize = 16;
  FO.Shard.MaxResident = 8;
  FO.Shard.SampleEverySessions = 0;
  FO.Shard.Session.FleetSeed = Seed;
  FO.Shard.Session.TargetOps = 48;
  FO.Shard.Session.MaxLogSize = 6;
  for (unsigned Arenas : Tiny ? std::vector<unsigned>{2}
                              : std::vector<unsigned>{4, 8}) {
    FO.NumArenas = Arenas;
    Cells.push_back(std::make_unique<FleetCell>(FO));
  }
}

void buildReallocMoves(uint64_t Seed, Size S,
                       std::vector<std::unique_ptr<CellState>> &Cells) {
  bool Tiny = S == Size::Tiny;
  uint64_t M = uint64_t(1) << (Tiny ? 10 : 16);
  unsigned LogN = Tiny ? 5 : 9;
  // Run length comes from the programs' step count (64x the default), not
  // from a smaller M: the cells stay at the pf-grid's M and n.
  uint64_t Steps = Tiny ? 96 : 6144;
  const char *Programs[] = {"update-fill-drain", "update-alternating",
                            "update-comb",       "update-size-profile",
                            "update-mix",        "cohen-petrank"};
  const char *Policies[] = {"realloc-never", "realloc-bucket", "realloc-jin"};
  for (const char *ProgName : Programs)
    for (const char *Policy : Policies)
      Cells.push_back(std::make_unique<ReallocCell>(M, LogN, 50.0, Steps,
                                                    Seed, ProgName, Policy));
}

void buildTraceReplay(uint64_t Seed, Size S,
                      std::vector<std::unique_ptr<CellState>> &Cells) {
  bool Tiny = S == Size::Tiny;
  const std::pair<const char *, WorkloadFuzzer::Pattern> Traces[] = {
      {"churn", WorkloadFuzzer::Pattern::Churn},
      {"queue-fifo", WorkloadFuzzer::Pattern::QueueFifo},
      {"comb", WorkloadFuzzer::Pattern::Comb}};
  ControllerSpec Fixed, Periodic, Balancer;
  Periodic.Name = "periodic";
  Periodic.Period = 64;
  Balancer.Name = "membalancer";
  Balancer.C1 = 10000.0;
  Balancer.Smoothing = 0.25;
  for (size_t T = 0; T != std::size(Traces); ++T) {
    // 100K ops a trace keeps a pass near a second, as for fleet-churn.
    WorkloadFuzzer::Options FO;
    FO.Seed = splitSeed(Seed, T);
    FO.NumOps = Tiny ? 2000 : 100000;
    FO.LiveBound = uint64_t(1) << 12;
    FO.MaxLogSize = 8;
    FO.P = Traces[T].second;
    std::vector<TraceOp> Ops = WorkloadFuzzer(FO).generate().materialize();
    std::ostringstream OS;
    TraceRecorder Rec(OS, TraceFraming::Binary);
    Rec.record(Ops);
    if (!Rec.good())
      throw std::runtime_error("cannot record trace");
    auto Bytes = std::make_shared<const std::string>(OS.str());
    for (const char *Policy : {"first-fit", "evacuating", "chunked"})
      for (const ControllerSpec *Spec : {&Fixed, &Periodic, &Balancer})
        Cells.push_back(std::make_unique<TraceCell>(
            Traces[T].first, Bytes, Rec.opsWritten(), Policy, *Spec, 50.0));
  }
}

} // namespace

const std::vector<WorkloadInfo> &pcbbench::workloads() {
  static const std::vector<WorkloadInfo> All = {
      {"pf-grid", 5.0, 2000},
      {"fleet-churn", 1.5, 20000},
      {"realloc-moves", 1.3, 10000},
      {"trace-replay", 1.6, 2}};
  return All;
}

bool pcbbench::buildWorkload(const std::string &Name, uint64_t Seed, Size S,
                             std::vector<std::unique_ptr<CellState>> &Cells) {
  Cells.clear();
  if (Name == "pf-grid")
    buildPfGrid(Seed, S, Cells);
  else if (Name == "fleet-churn")
    buildFleetChurn(Seed, S, Cells);
  else if (Name == "realloc-moves")
    buildReallocMoves(Seed, S, Cells);
  else if (Name == "trace-replay")
    buildTraceReplay(Seed, S, Cells);
  else
    return false;
  return true;
}

std::unique_ptr<CellState> pcbbench::plantedAbortCell() {
  return std::make_unique<AbortCell>();
}
