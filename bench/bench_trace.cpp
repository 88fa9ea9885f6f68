//===- bench/bench_trace.cpp - E15: trace replay under budget gates ------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Drives the trace engine end to end: each named workload pattern is
// generated once, serialized through the malloc-trace wire format, and
// then *streamed back* through every (policy x controller) pair — so one
// cell covers TraceWriter, TraceReader, StreamingTraceProgram and the
// spend gate together, exactly the production trace-run path. The table
// compares how the budget controllers trade compaction-budget burn
// against the achieved waste factor on identical schedules.
//
// Usage: bench_trace [traces=churn,queue-fifo,comb] [ops=20000]
//                    [policies=first-fit,evacuating,chunked]
//                    [controllers=fixed,periodic,membalancer]
//                    [c=50] [period=64] [c1=10000] [smoothing=0.25]
//                    [seed=42] [maxlog=8] [live=16384] [threads=0]
//                    [csv=0] [json=0] [out=] [bench-json=FILE]
//
// The results table on stdout stays byte-identical across thread counts
// (the determinism test diffs it); wall-clock perf goes to stderr, and
// the machine-readable regression baseline (ops/sec plus the per-phase
// breakdown, trace.read included) goes to bench-json=FILE.
//
//===----------------------------------------------------------------------===//

#include "fuzz/WorkloadFuzzer.h"
#include "obs/Profiler.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceRun.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
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

/// Resolves a fuzz pattern by name; exits with a diagnostic otherwise.
WorkloadFuzzer::Pattern patternByName(const std::string &Name) {
  for (WorkloadFuzzer::Pattern P : WorkloadFuzzer::allPatterns())
    if (WorkloadFuzzer::patternName(P) == Name)
      return P;
  std::cerr << "error: unknown trace pattern '" << Name << "' (one of:";
  for (WorkloadFuzzer::Pattern P : WorkloadFuzzer::allPatterns())
    std::cerr << " " << WorkloadFuzzer::patternName(P);
  std::cerr << ")\n";
  std::exit(1);
}

} // namespace

int main(int argc, char **argv) try {
  OptionParser Opts(argc, argv);
  std::vector<std::string> Traces =
      parseNameList(Opts.getString("traces", "churn,queue-fifo,comb"));
  std::vector<std::string> Policies = parseNameList(
      Opts.getString("policies", "first-fit,evacuating,chunked"));
  std::vector<std::string> Controllers = parseNameList(
      Opts.getString("controllers", "fixed,periodic,membalancer"));
  uint64_t NumOps = Opts.getUInt("ops", 20000);
  uint64_t Seed = Opts.getUInt("seed", 42);
  if (Traces.empty() || Policies.empty() || Controllers.empty() ||
      NumOps == 0) {
    std::cerr << "error: traces=, policies=, controllers= and ops= must"
              << " be non-empty\n";
    return 1;
  }
  ControllerSpec Spec; // shared tuning; Name set per cell
  Spec.Period = std::max<uint64_t>(1, Opts.getUInt("period", 64));
  Spec.C1 = Opts.getDouble("c1", 10000.0);
  Spec.Smoothing = Opts.getDouble("smoothing", 0.25);
  TraceRunOptions Base;
  Base.C = Opts.getDouble("c", 50.0);
  Base.LiveBound = Opts.getUInt("live", 0);
  std::string BenchJsonPath = Opts.getString("bench-json", "");

  // Generate each trace once and push it through the wire format, so the
  // grid cells stream exactly what trace-run would read from disk. The
  // binary framing is the production one (and the denser to parse).
  WorkloadFuzzer::Options FO;
  FO.NumOps = NumOps;
  FO.LiveBound = std::max<uint64_t>(1, Opts.getUInt("livegen", 1 << 12));
  FO.MaxLogSize = parseLogWord(Opts, "maxlog", 8);
  std::map<std::string, std::string> Serialized;
  for (size_t T = 0; T != Traces.size(); ++T) {
    FO.Seed = splitSeed(Seed, T);
    FO.P = patternByName(Traces[T]);
    std::ostringstream OS;
    TraceRecorder Rec(OS, TraceFraming::Binary);
    Rec.record(WorkloadFuzzer(FO).generate().materialize());
    Serialized[Traces[T]] = OS.str();
  }

  std::cout << "# E15: trace replay under budget controllers: "
            << Traces.size() << " traces x " << Policies.size()
            << " policies x " << Controllers.size() << " controllers (ops="
            << NumOps << ", c=" << formatDouble(Base.C, 0) << ", period="
            << Spec.Period << ", c1=" << formatDouble(Spec.C1, 0) << ")\n"
            << "# Budget burn vs waste factor on identical streamed"
            << " schedules; fixed is the managers' built-in trigger.\n";

  ExperimentGrid Grid;
  Grid.addAxis("trace", Traces);
  Grid.addAxis("policy", Policies);
  Grid.addAxis("controller", Controllers);

  ResultSink Sink({"trace", "policy", "controller", "ops", "HS", "waste",
                   "moved_words", "burn_%", "grants", "denials"});
  std::atomic<uint64_t> TotalOps{0};
  Runner Run = makeRunner(Opts);
  Run.runRows(
      Grid,
      [&](const GridCell &Cell) {
        TraceRunOptions RO = Base;
        RO.Policy = Cell.str("policy");
        RO.Controller = Spec;
        RO.Controller.Name = Cell.str("controller");
        std::istringstream IS(Serialized.at(Cell.str("trace")));
        TraceReader R(IS);
        TraceRunReport Rep = runTrace(R, RO, Cell.str("trace"));
        TotalOps.fetch_add(Rep.OpsStreamed, std::memory_order_relaxed);
        return Row()
            .addCell(Rep.Trace)
            .addCell(Rep.Policy)
            .addCell(Rep.Controller)
            .addCell(Rep.OpsStreamed)
            .addCell(Rep.Exec.HeapSize)
            .addCell(Rep.WasteFactor, 4)
            .addCell(Rep.Exec.MovedWords)
            .addCell(Rep.BudgetBurnPct, 2)
            .addCell(Rep.ControllerGrants)
            .addCell(Rep.ControllerDenials);
      },
      Sink);
  if (!Sink.emit(Opts))
    return 1;

  // Wall-clock reporting is stderr-only: the determinism test diffs
  // stdout across thread counts.
  double Wall = Run.wallSeconds();
  double OpsPerSec = Wall > 0.0 ? double(TotalOps.load()) / Wall : 0.0;
  std::cerr << "# perf: " << Grid.numCells() << " cells in "
            << formatDouble(Wall, 2) << "s wall (threads=" << Run.threads()
            << "); " << TotalOps.load() << " ops streamed, "
            << uint64_t(OpsPerSec) << " ops/s\n";

  if (!BenchJsonPath.empty()) {
    // Per-phase breakdown from a profiled serial re-run of one
    // representative cell: the first trace through the evacuating
    // manager under the MemBalancer gate, so trace.read, the substrate
    // sections and the gate's denial counter all fire.
    Profiler Prof;
    double CellWall = 0.0;
    uint64_t CellOps = 0;
    {
      TraceRunOptions RO = Base;
      RO.Policy = "evacuating";
      RO.Controller = Spec;
      RO.Controller.Name = "membalancer";
      std::istringstream IS(Serialized.at(Traces.front()));
      TraceReader R(IS);
      ProfilerScope Scope(Prof);
      auto Start = std::chrono::steady_clock::now();
      CellOps = runTrace(R, RO, Traces.front()).OpsStreamed;
      CellWall = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    }

    std::ofstream OS(BenchJsonPath);
    OS << "{\n"
       << "  \"bench\": \"trace\",\n"
       << "  \"traces\": [";
    for (size_t I = 0; I != Traces.size(); ++I)
      OS << (I ? ", " : "") << "\"" << Traces[I] << "\"";
    OS << "],\n"
       << "  \"policies\": [";
    for (size_t I = 0; I != Policies.size(); ++I)
      OS << (I ? ", " : "") << "\"" << Policies[I] << "\"";
    OS << "],\n"
       << "  \"controllers\": [";
    for (size_t I = 0; I != Controllers.size(); ++I)
      OS << (I ? ", " : "") << "\"" << Controllers[I] << "\"";
    OS << "],\n"
       << "  \"ops\": " << NumOps << ",\n"
       << "  \"threads\": " << Run.threads() << ",\n"
       << "  \"wall_seconds\": " << formatDouble(Wall, 3) << ",\n"
       << "  \"total_steps\": " << TotalOps.load() << ",\n"
       << "  \"steps_per_second\": " << formatDouble(OpsPerSec, 1) << ",\n"
       << "  \"profiled_cell\": {\"trace\": \"" << Traces.front()
       << "\", \"policy\": \"evacuating\", \"controller\": \"membalancer\""
       << ", \"ops\": " << CellOps << ", \"wall_seconds\": "
       << formatDouble(CellWall, 3) << "},\n"
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
