//===- bench/bench_realloc.cpp - E16: reallocation overhead curves -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The reallocation workbench's overhead-curve bench: every insert/delete
// adversary (realloc/UpdateProgram.h) plus the Cohen–Petrank PF
// adversary runs through every reallocation algorithm, reporting the
// footprint each achieved and the overhead it paid — moved words per
// allocated word, with the worst prefix ratio checked against each
// scheme's declared bound. PF's row is E16's cross-family half: the
// compaction family's strongest adversary aimed at the other problem.
//
// Usage: bench_realloc [programs=update-fill-drain,...,cohen-petrank]
//                      [policies=realloc-never,realloc-bucket,realloc-jin]
//                      [logm=12] [logn=6] [c=50] [threads=0]
//                      [csv=0] [json=0] [out=] [bench-json=FILE]
//
// The results table on stdout stays byte-identical across thread counts
// (the determinism test diffs it); wall-clock perf goes to stderr, and
// the regression baseline (steps/sec, the per-phase breakdown with
// mm.realloc, and the per-cell overhead ratios compare_bench.py gates)
// goes to bench-json=FILE.
//
//===----------------------------------------------------------------------===//

#include "adversary/ProgramFactory.h"
#include "driver/Execution.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/MathUtils.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <algorithm>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

using namespace pcb;

namespace {

/// Splits "a,b,c" into non-empty items.
std::vector<std::string> parseNameList(const std::string &Text) {
  std::vector<std::string> Names;
  std::istringstream IS(Text);
  std::string Item;
  while (std::getline(IS, Item, ','))
    if (!Item.empty())
      Names.push_back(Item);
  return Names;
}

struct CellOutcome {
  ExecutionResult Exec;
  double Overhead = 0.0;
  double WorstPrefix = 0.0;
  double Bound = 0.0;
};

CellOutcome runCell(const std::string &ProgName, const std::string &Policy,
                    uint64_t M, unsigned LogN, double C) {
  Heap H;
  auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
  auto Prog = createProgram(ProgName, M, LogN, C);
  Execution E(*MM, *Prog, M);
  CellOutcome Out;
  Out.Exec = E.run();
  Out.Overhead = Out.Exec.overheadRatio();
  Out.Bound = MM->overheadBound();
  if (const CompactionLedger *RL = MM->reallocationLedger())
    Out.WorstPrefix = RL->maxPrefixRatio();
  return Out;
}

} // namespace

int main(int argc, char **argv) try {
  OptionParser Opts(argc, argv);
  std::vector<std::string> Programs = parseNameList(Opts.getString(
      "programs", "update-fill-drain,update-alternating,update-comb,"
                  "update-size-profile,update-mix,cohen-petrank"));
  std::vector<std::string> Policies = parseNameList(
      Opts.getString("policies", "realloc-never,realloc-bucket,realloc-jin"));
  unsigned LogM = parseLogWord(Opts, "logm", 12);
  unsigned LogN = parseLogWord(Opts, "logn", 6);
  double C = Opts.getDouble("c", 50.0);
  uint64_t M = pow2(LogM);
  std::string BenchJsonPath = Opts.getString("bench-json", "");
  if (Programs.empty() || Policies.empty()) {
    std::cerr << "error: programs= and policies= must be non-empty\n";
    return 1;
  }
  for (const std::string &Name : Programs) {
    std::string Error;
    if (!createProgramChecked(Name, M, LogN, C, &Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
  }
  for (const std::string &Policy : Policies) {
    Heap Probe;
    std::string Error;
    if (!createManagerChecked(Policy, Probe, C, /*LiveBound=*/M, &Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
  }

  std::cout << "# E16: reallocation overhead curves: " << Programs.size()
            << " programs x " << Policies.size() << " algorithms (M="
            << formatWords(M) << ", n=" << formatWords(pow2(LogN)) << ")\n"
            << "# overhead = moved words / allocated words; worst_prefix"
            << " must stay at or below each scheme's bound.\n";

  ExperimentGrid Grid;
  Grid.addAxis("program", Programs);
  Grid.addAxis("policy", Policies);

  ResultSink Sink({"program", "policy", "steps", "HS", "waste", "moved_words",
                   "alloc_words", "overhead", "worst_prefix", "bound"});
  std::atomic<uint64_t> TotalSteps{0};
  // The gated overhead cells for the JSON baseline, keyed for stable
  // emission order; filled under a mutex because runRows is parallel.
  std::vector<std::pair<std::string, double>> OverheadCells;
  std::mutex CellsMutex;
  Runner Run = makeRunner(Opts);
  Run.runRows(
      Grid,
      [&](const GridCell &Cell) {
        const std::string &ProgName = Cell.str("program");
        const std::string &Policy = Cell.str("policy");
        CellOutcome Out = runCell(ProgName, Policy, M, LogN, C);
        TotalSteps.fetch_add(Out.Exec.Steps, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> Lock(CellsMutex);
          OverheadCells.emplace_back(ProgName + "/" + Policy,
                                     Out.Overhead);
        }
        return Row()
            .addCell(ProgName)
            .addCell(Policy)
            .addCell(Out.Exec.Steps)
            .addCell(Out.Exec.HeapSize)
            .addCell(Out.Exec.wasteFactor(M), 3)
            .addCell(Out.Exec.MovedWords)
            .addCell(Out.Exec.TotalAllocatedWords)
            .addCell(Out.Overhead, 4)
            .addCell(Out.WorstPrefix, 4)
            .addCell(std::isfinite(Out.Bound) ? formatDouble(Out.Bound, 1)
                                              : std::string("inf"));
      },
      Sink);
  if (!Sink.emit(Opts))
    return 1;

  // Wall-clock reporting is stderr-only: the determinism test diffs
  // stdout across thread counts.
  double Wall = Run.wallSeconds();
  double StepsPerSec = Wall > 0.0 ? double(TotalSteps.load()) / Wall : 0.0;
  std::cerr << "# perf: " << Grid.numCells() << " cells in "
            << formatDouble(Wall, 2) << "s wall (threads=" << Run.threads()
            << "); " << TotalSteps.load() << " steps, "
            << uint64_t(StepsPerSec) << " steps/s\n";

  if (!BenchJsonPath.empty()) {
    // Per-phase breakdown from a profiled serial re-run of the whole
    // grid: one cell would be over in a millisecond, far too few calls
    // for the per-phase ns/call gate to be stable across CI runs.
    Profiler Prof;
    double CellWall = 0.0;
    uint64_t CellSteps = 0;
    {
      ProfilerScope Scope(Prof);
      auto Start = std::chrono::steady_clock::now();
      for (const std::string &ProgName : Programs)
        for (const std::string &Policy : Policies)
          CellSteps += runCell(ProgName, Policy, M, LogN, C).Exec.Steps;
      CellWall = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    }

    // Deterministic emission order for the committed baseline.
    std::sort(OverheadCells.begin(), OverheadCells.end());

    std::ofstream OS(BenchJsonPath);
    OS << "{\n"
       << "  \"bench\": \"realloc\",\n"
       << "  \"programs\": [";
    for (size_t I = 0; I != Programs.size(); ++I)
      OS << (I ? ", " : "") << "\"" << Programs[I] << "\"";
    OS << "],\n"
       << "  \"policies\": [";
    for (size_t I = 0; I != Policies.size(); ++I)
      OS << (I ? ", " : "") << "\"" << Policies[I] << "\"";
    OS << "],\n"
       << "  \"logm\": " << LogM << ",\n"
       << "  \"logn\": " << LogN << ",\n"
       << "  \"threads\": " << Run.threads() << ",\n"
       << "  \"wall_seconds\": " << formatDouble(Wall, 3) << ",\n"
       << "  \"total_steps\": " << TotalSteps.load() << ",\n"
       << "  \"steps_per_second\": " << formatDouble(StepsPerSec, 1) << ",\n"
       << "  \"profiled_grid\": {\"cells\": " << Grid.numCells()
       << ", \"steps\": " << CellSteps
       << ", \"wall_seconds\": " << formatDouble(CellWall, 3) << "},\n"
       << "  \"overhead_cells\": [";
    for (size_t I = 0; I != OverheadCells.size(); ++I)
      OS << (I ? ", " : "") << "{\"cell\": \"" << OverheadCells[I].first
         << "\", \"overhead\": " << formatDouble(OverheadCells[I].second, 4)
         << "}";
    OS << "],\n"
       << "  \"per_phase\": [";
    bool First = true;
    for (unsigned S = 0; S != Profiler::NumSections; ++S) {
      const Profiler::SectionStats &Stats =
          Prof.section(Profiler::Section(S));
      if (Stats.Calls == 0)
        continue;
      OS << (First ? "" : ", ") << "{\"section\": \""
         << Profiler::sectionName(Profiler::Section(S))
         << "\", \"calls\": " << Stats.Calls << ", \"total_ms\": "
         << formatDouble(double(Stats.Nanos) * 1e-6, 3)
         << ", \"ns_per_call\": "
         << formatDouble(double(Stats.Nanos) / double(Stats.Calls), 1)
         << "}";
      First = false;
    }
    OS << "]\n}\n";
    if (!OS) {
      std::cerr << "error: cannot write '" << BenchJsonPath << "'\n";
      return 1;
    }
    std::cerr << "# bench baseline written to " << BenchJsonPath << "\n";
  }
  return 0;
} catch (const std::exception &Ex) {
  std::cerr << "error: " << Ex.what() << "\n";
  return 1;
}
