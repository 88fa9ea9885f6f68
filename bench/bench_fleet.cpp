//===- bench/bench_fleet.cpp - E14: fleet service-mode throughput --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Drives the service layer end to end: for each arena count in arenas=,
// a ServiceFleet drains sessions= lightweight mutator sessions through
// the work-stealing scheduler and reports the fleet's footprint and
// fragmentation percentiles. The table shows how sharding one workload
// over more arenas trades total footprint against per-arena
// fragmentation (the Compact-fit per-thread-arena question) under a
// fixed c-partial budget.
//
// Usage: bench_fleet [arenas=1,4,8] [sessions=100000] [policy=evacuating]
//                    [c=50] [batch=16] [resident=8] [ops=48] [maxlog=6]
//                    [seed=1] [threads=0] [csv=0] [json=0] [out=]
//                    [bench-json=FILE]
//
// The results table on stdout is byte-identical across thread counts
// (the determinism test diffs it); wall-clock perf goes to stderr, and
// the machine-readable regression baseline (ops/sec plus the profiled
// per-phase breakdown, serve.flush included) goes to bench-json=FILE.
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "service/ServiceFleet.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <chrono>
#include <fstream>
#include <iostream>

using namespace pcb;

int main(int argc, char **argv) try {
  OptionParser Opts(argc, argv);
  std::vector<double> ArenaCounts = parseNumberList(Opts, "arenas", "1,4,8");
  uint64_t Sessions = Opts.getUInt("sessions", 100000);
  std::string BenchJsonPath = Opts.getString("bench-json", "");

  FleetOptions Base;
  Base.NumSessions = Sessions;
  Base.Threads = unsigned(Opts.getUInt("threads", 0));
  Base.SliceFlushes = std::max<uint64_t>(1, Opts.getUInt("slice", 32));
  Base.Shard.Policy = Opts.getString("policy", "evacuating");
  Base.Shard.C = Opts.getDouble("c", 50.0);
  Base.Shard.BatchSize = std::max<uint64_t>(1, Opts.getUInt("batch", 16));
  Base.Shard.MaxResident =
      std::max<uint64_t>(1, Opts.getUInt("resident", 8));
  Base.Shard.SampleEverySessions = 0; // throughput run: no timelines
  Base.Shard.Session.FleetSeed = Opts.getUInt("seed", 1);
  Base.Shard.Session.TargetOps = Opts.getUInt("ops", 48);
  Base.Shard.Session.MaxLogSize = parseLogWord(Opts, "maxlog", 6);

  std::cout << "# E14: fleet service mode: " << ArenaCounts.size()
            << " arena counts x " << Sessions << " sessions (policy="
            << Base.Shard.Policy << ", c=" << formatDouble(Base.Shard.C, 0)
            << ", batch=" << Base.Shard.BatchSize << ", resident="
            << Base.Shard.MaxResident << ", ops="
            << Base.Shard.Session.TargetOps << ")\n"
            << "# Sharding one workload over more arenas: total footprint"
            << " vs per-arena fragmentation percentiles.\n";

  ResultSink Sink({"arenas", "sessions", "footprint_words", "p99_footprint",
                   "frag_p50", "frag_p99", "mean_util", "moved_words",
                   "burn_%", "flushes"});

  // The fleets run profiled (serve.flush plus the substrate sections) so
  // the regression baseline reflects the real scheduler path; the
  // ScopedTimer overhead at flush granularity is noise.
  Profiler Prof;
  double Wall = 0.0;
  uint64_t TotalOps = 0;
  uint64_t TotalSessions = 0;
  unsigned Threads = 0;

  for (double ArenasD : ArenaCounts) {
    FleetOptions FO = Base;
    FO.NumArenas = unsigned(ArenasD);
    if (FO.NumArenas == 0) {
      std::cerr << "error: arenas= entries must be positive\n";
      return 1;
    }
    FO.Prof = &Prof;
    ServiceFleet Fleet(FO);
    Fleet.run();
    Wall += Fleet.wallSeconds();
    Threads = Fleet.threads();
    FleetReport R = Fleet.report();
    TotalOps += R.TotalOpsApplied;
    TotalSessions += R.TotalSessions;
    Sink.append(Row()
                    .addCell(uint64_t(FO.NumArenas))
                    .addCell(R.TotalSessions)
                    .addCell(R.TotalFootprintWords)
                    .addCell(R.P99FootprintWords)
                    .addCell(R.P50Fragmentation, 3)
                    .addCell(R.P99Fragmentation, 3)
                    .addCell(R.MeanUtilization, 3)
                    .addCell(R.TotalMovedWords)
                    .addCell(100.0 * R.BudgetBurn, 1)
                    .addCell(R.TotalFlushes));
  }
  if (!Sink.emit(Opts))
    return 1;

  double OpsPerSec = Wall > 0.0 ? double(TotalOps) / Wall : 0.0;
  std::cerr << "# perf: " << ArenaCounts.size() << " fleets in "
            << formatDouble(Wall, 2) << "s wall (threads=" << Threads
            << "); " << TotalSessions << " sessions, " << TotalOps
            << " ops, " << uint64_t(OpsPerSec) << " ops/s\n";

  if (!BenchJsonPath.empty()) {
    std::ofstream OS(BenchJsonPath);
    OS << "{\n"
       << "  \"bench\": \"fleet\",\n"
       << "  \"arenas\": [";
    for (size_t I = 0; I != ArenaCounts.size(); ++I)
      OS << (I ? ", " : "") << formatDouble(ArenaCounts[I], 0);
    OS << "],\n"
       << "  \"sessions\": " << Sessions << ",\n"
       << "  \"policy\": \"" << Base.Shard.Policy << "\",\n"
       << "  \"batch\": " << Base.Shard.BatchSize << ",\n"
       << "  \"resident\": " << Base.Shard.MaxResident << ",\n"
       << "  \"ops\": " << Base.Shard.Session.TargetOps << ",\n"
       << "  \"threads\": " << Threads << ",\n"
       << "  \"wall_seconds\": " << formatDouble(Wall, 3) << ",\n"
       << "  \"total_steps\": " << TotalOps << ",\n"
       << "  \"steps_per_second\": " << formatDouble(OpsPerSec, 1) << ",\n"
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
