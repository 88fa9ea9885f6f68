//===- tools/pcbound.cpp - The pcbound command-line tool ------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// One binary for the common workflows:
//
//   pcbound bounds   [M= n= c=]                 all bounds + readings
//   pcbound plan     [M= n= target=]            inverse: budget for a target
//   pcbound simulate [program= policy= logm= logn= c= trace= verbose=]
//                                               run an execution, optionally
//                                               saving the event trace
//   pcbound replay   trace=FILE [policy= c= logm=]
//                                               re-run a saved trace's
//                                               program behaviour elsewhere
//   pcbound sweep    [program= policies= cs= logm= logn= --threads=N]
//                                               run a (policy x c) grid of
//                                               executions in parallel
//   pcbound fuzz     [seed= iterations= ops= policies= c= logm= maxlog=
//                     deep= repro-dir= --threads=N]
//                                               differential fuzzing: random
//                                               schedules through every
//                                               policy, invariants checked
//                                               after every step; failures
//                                               are shrunk and written as
//                                               replayable reproducers
//   pcbound replay-trace trace=FILE [policy= c=]
//                                               re-execute a fuzz reproducer
//                                               (or any saved trace) with
//                                               the invariant oracle on
//   pcbound trace-record out=FILE [pattern=|program=|session= format=]
//                                               capture a fuzz pattern, an
//                                               adversary program, or a
//                                               fleet session as a malloc
//                                               trace (text or binary)
//   pcbound trace-run trace=FILE [policy= c= controller= ...]
//                                               stream a malloc trace
//                                               through a manager under a
//                                               budget controller; memory
//                                               stays bounded by the live
//                                               window, not the op count
//   pcbound serve    [arenas= sessions= threads= policy= c= batch=
//                     resident= ops= maxlog= live= seed= sample= audit=
//                     slice= json= out= timeline= arena-rows= profile=]
//                                               concurrent multi-arena
//                                               service mode: N shared-
//                                               nothing arena shards
//                                               drained by a work-stealing
//                                               scheduler; deterministic
//                                               fleet report on stdout,
//                                               wall clock on stderr
//   pcbound exact    [Ms= ns= cs= witness-dir= --threads=N]
//                                               solve the allocation game
//                                               exactly on tiny parameters
//                                               and certify the closed-form
//                                               bounds layer against ground
//                                               truth (exit 1 on any
//                                               certificate failure)
//   pcbound policies                            list manager policies
//
// Exit codes: 0 on success, 1 on a domain error (one `error:` line on
// stderr) or a failed check, 2 on a usage error. Each word group is read
// and range-checked in one place: the scenario words (parseScenario), the
// session shape (parseSessionShape) and the controller
// (parseControllerSpec).
//
//===----------------------------------------------------------------------===//

#include "adversary/ProgramFactory.h"
#include "adversary/SyntheticWorkloads.h"
#include "adversary/WorkloadSpec.h"
#include "bounds/BenderskyPetrankBounds.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/Planning.h"
#include "bounds/RobsonBounds.h"
#include "driver/Auditors.h"
#include "driver/Execution.h"
#include "driver/TraceIO.h"
#include "exact/Certifier.h"
#include "exact/MinimaxSolver.h"
#include "exact/WitnessTrace.h"
#include "fuzz/DifferentialHarness.h"
#include "fuzz/WorkloadFuzzer.h"
#include "heap/HeapImage.h"
#include "heap/Metrics.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"
#include "obs/Timeline.h"
#include "obs/TimelineSampler.h"
#include "realloc/ReallocationLedger.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "service/ServiceFleet.h"
#include "support/OptionParser.h"
#include "support/Table.h"
#include "trace/BudgetController.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceRun.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

using namespace pcb;

namespace {

int usage() {
  std::cerr
      << "usage: pcbound <command> [name=value ...]\n"
      << "  bounds    [M=256M n=1M c=50]\n"
      << "  plan      [M=256M n=1M target=2.5]\n"
      << "  simulate  [program=cohen-petrank policy=evacuating logm=14\n"
      << "             logn=8 c=50 family=all trace=FILE verbose=0\n"
      << "             timeline=FILE stride=1 controller=fixed period=16\n"
      << "             c1=1.0 smoothing=0.25]\n"
      << "  profile   [program=pf policy=evacuating logm=14 logn=8 c=50\n"
      << "             stride=1 timeline=FILE chart=1]\n"
      << "  replay    trace=FILE [policy=first-fit c=50 logm=14]\n"
      << "  sweep     [program=cohen-petrank policies=all family=all\n"
      << "             cs=10,25,50,75,100 logm=14 logn=8 --threads=<ncores>\n"
      << "             csv=0 json=0 out= timeline=PREFIX stride=1]\n"
      << "  fuzz      [seed=1 iterations=50 ops=384 policies=all family=all\n"
      << "             c=50 logm=12 maxlog=8 deep=64 repro-dir=.\n"
      << "             --threads=N timeline=PREFIX trace=FILE\n"
      << "             controller=fixed period=16 c1=1.0 smoothing=0.25]\n"
      << "  replay-trace trace=FILE [policy=first-fit c=50]\n"
      << "  trace-record out=FILE [pattern=mixed | program=NAME | session=ID]\n"
      << "             [format=binary seed=1 ops=4096 live=4096 maxlog=8\n"
      << "             logm=14 logn=8 c=50 policy=first-fit]\n"
      << "  trace-run trace=FILE [policy=first-fit c=50 controller=fixed\n"
      << "             period=16 c1=1.0 smoothing=0.25 live=0 deep=0\n"
      << "             json=0 out= timeline= stride=1 profile=0]\n"
      << "  serve     [arenas=4 sessions=4096 threads=0 policy=evacuating\n"
      << "             c=50 batch=16 resident=8 ops=48 maxlog=6 live=1024\n"
      << "             seed=1 sample=64 audit=0 slice=32 json=0 out=\n"
      << "             timeline= arena-rows=32 profile=0 trace=FILE\n"
      << "             controller=fixed period=16 c1=1.0 smoothing=0.25]\n"
      << "  exact     [Ms=2,4,8 ns=2,4 cs=1,2,4,inf budget-cap=0\n"
      << "             node-limit=0 max-arena=0 witness-dir=DIR\n"
      << "             --threads=N csv=0 json=0 out=]\n"
      << "  policies\n"
      << "programs: robson, cohen-petrank, random-churn, markov-phase,\n"
      << "          stack-lifo, queue-fifo, sawtooth, update-fill-drain,\n"
      << "          update-alternating, update-comb, update-size-profile,\n"
      << "          update-mix, spec (with spec=FILE; see docs/MANUAL.md)\n"
      << "families: all, compaction, realloc (default policy/program set\n"
      << "          for simulate/sweep/fuzz)\n"
      << "controllers: fixed, periodic (period=), membalancer (c1=\n"
      << "          smoothing=)\n";
  return 2;
}

/// Commands report a domain error by throwing; main prints it as one
/// `error: <what>` line and exits 1.
[[noreturn]] void fail(const std::string &What) {
  throw std::runtime_error(What);
}

/// The scenario words: which program runs against which policy on which
/// domain (family= program= policy= logm= logn= c=).
struct ScenarioOptions {
  std::string Family = "all";
  std::string Program = "cohen-petrank";
  std::string Policy = "evacuating";
  unsigned LogM = 14;
  unsigned LogN = 8;
  double C = 50.0;

  uint64_t M() const { return pow2(LogM); }
};

/// Reads a log2 size word over \p Default and checks that 2^value words
/// fit the 2^60-word address space.
unsigned parseLogWord(const OptionParser &Opts, const std::string &Name,
                      unsigned Default) {
  uint64_t Log = Opts.getUInt(Name, Default);
  if (Log > 60)
    fail(Name + "=" + std::to_string(Log) + " is out of range: 2^" + Name +
         " words must fit the 2^60-word address space (" + Name +
         " <= 60)");
  return unsigned(Log);
}

/// Reads the scenario words over \p S, the calling command's defaults, and
/// range-checks each word on its own. Rules that tie words together (the
/// largest object, 2^logn words, must fit in M) belong to whoever uses
/// them: createProgramChecked checks logn against M.
ScenarioOptions parseScenario(const OptionParser &Opts, ScenarioOptions S) {
  S.Family = Opts.getString("family", S.Family);
  if (S.Family != "all" && S.Family != "compaction" && S.Family != "realloc")
    fail("unknown family '" + S.Family +
         "'; valid families: all, compaction, realloc");
  S.Program = Opts.getString("program", S.Program);
  S.Policy = Opts.getString("policy", S.Policy);
  S.LogM = parseLogWord(Opts, "logm", S.LogM);
  S.LogN = parseLogWord(Opts, "logn", S.LogN);
  S.C = Opts.getDouble("c", S.C);
  return S;
}

/// Reads the session-shape words (seed= ops= maxlog= live=) of fuzz,
/// trace-record and serve over \p S, the calling command's defaults.
SessionParams parseSessionShape(const OptionParser &Opts, SessionParams S) {
  S.FleetSeed = Opts.getUInt("seed", S.FleetSeed);
  S.TargetOps = Opts.getUInt("ops", S.TargetOps);
  S.MaxLogSize = parseLogWord(Opts, "maxlog", S.MaxLogSize);
  S.LiveBound = std::max<uint64_t>(1, Opts.getUInt("live", S.LiveBound));
  return S;
}

/// Checks that a synthesized session's largest object, 2^maxlog words,
/// fits its live bound. Trace-backed sessions draw their sizes from the
/// trace and skip it.
void checkSessionShape(const SessionParams &S) {
  if (S.MaxLogSize > log2Floor(S.LiveBound))
    fail("maxlog=" + std::to_string(S.MaxLogSize) +
         " is out of range: objects of 2^maxlog words exceed the live bound"
         " of " + std::to_string(S.LiveBound) + " words");
}

/// Parses the shared budget-controller options (controller= period= c1=
/// smoothing=) and validates the name against the factory.
ControllerSpec parseControllerSpec(const OptionParser &Opts) {
  ControllerSpec Spec;
  Spec.Name = Opts.getString("controller", "fixed");
  Spec.Period = std::max<uint64_t>(1, Opts.getUInt("period", 16));
  Spec.C1 = Opts.getDouble("c1", 1.0);
  Spec.Smoothing = Opts.getDouble("smoothing", 0.25);
  std::string Error;
  if (!createControllerChecked(Spec, &Error))
    fail(Error);
  return Spec;
}

/// Builds a sampler from the common stride= option; attached only when
/// the caller asked for a timeline.
TimelineSampler::Options samplerOptions(const OptionParser &Opts) {
  TimelineSampler::Options SO;
  SO.Stride = std::max<uint64_t>(1, Opts.getUInt("stride", 1));
  return SO;
}

/// Timeline::writeFile, throwing its diagnostic.
void writeTimeline(const Timeline &TL, const std::string &Path) {
  std::string Error;
  if (!TL.writeFile(Path, &Error))
    fail(Error);
}

/// createManagerChecked, throwing its diagnostic.
std::unique_ptr<MemoryManager> buildManager(const std::string &Policy,
                                            Heap &H, double C,
                                            uint64_t LiveBound) {
  std::string Error;
  auto MM = createManagerChecked(Policy, H, C, LiveBound, &Error);
  if (!MM)
    fail(Error);
  return MM;
}

/// Builds the scenario's program — any factory name, or "spec" with
/// spec=FILE. Shared by simulate, profile and trace-record.
std::unique_ptr<Program> buildProgram(const OptionParser &Opts,
                                      const ScenarioOptions &S) {
  if (S.Program == "spec") {
    std::string SpecPath = Opts.getString("spec", "");
    std::ifstream SpecIS(SpecPath);
    if (SpecPath.empty() || !SpecIS)
      fail("program=spec needs a readable spec=FILE");
    WorkloadSpec Spec;
    std::string Error;
    if (!parseWorkloadSpec(SpecIS, Spec, Error))
      fail(SpecPath + ": " + Error);
    return std::make_unique<SpecProgram>(S.M(), Spec);
  }
  std::string Error;
  auto Prog = createProgramChecked(S.Program, S.M(), S.LogN, S.C, &Error);
  if (!Prog)
    fail(Error);
  return Prog;
}

/// Loads and materializes the malloc trace at \p Path into the
/// ordinal-free TraceOp convention, for the consumers that hold a trace
/// whole (fuzz corpora, fleet session classes). Sets \p PeakLiveWords to
/// the trace's peak live volume.
std::shared_ptr<const std::vector<TraceOp>>
loadMallocTrace(const std::string &Path, uint64_t &PeakLiveWords) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    fail("cannot read '" + Path + "'");
  TraceReader R(IS);
  std::string Error;
  std::vector<TraceOp> Ops = materializeTrace(R, &Error);
  if (!Error.empty())
    fail(Path + ": " + Error);
  PeakLiveWords = R.peakLiveWords();
  return std::make_shared<const std::vector<TraceOp>>(std::move(Ops));
}

/// M= and n= of bounds and plan (word counts, "256M" style), checked
/// against the domain every bound formula accepts.
BoundParams parseBoundParams(const OptionParser &Opts, double C) {
  BoundParams P{Opts.getUInt("M", pow2(28)), Opts.getUInt("n", pow2(20)), C};
  if (!P.valid())
    fail("need power-of-two M >= n >= 2 and c > 1");
  return P;
}

int cmdBounds(const OptionParser &Opts) {
  BoundParams P = parseBoundParams(Opts, parseScenario(Opts, {}).C);
  Table T({"bound", "waste_factor", "heap_words"});
  auto Row = [&](const std::string &Name, double Factor) {
    T.beginRow();
    T.addCell(Name);
    T.addCell(Factor, 3);
    T.addCell(uint64_t(Factor * double(P.M)));
  };
  Row("lower: Cohen-Petrank Theorem 1", cohenPetrankLowerWasteFactor(P));
  Row("lower: Bendersky-Petrank POPL'11",
      benderskyPetrankLowerWasteFactor(P));
  Row("lower/upper: Robson (no moving)", robsonWasteFactor(P));
  Row("upper: Bendersky-Petrank (c+1)M",
      benderskyPetrankUpperWasteFactor(P));
  if (P.C > 0.5 * double(P.logN()))
    Row("upper: Cohen-Petrank Theorem 2", cohenPetrankUpperWasteFactor(P));
  Row("upper: best known combined", newBestUpperWasteFactor(P));
  T.printAligned(std::cout);
  return 0;
}

int cmdPlan(const OptionParser &Opts) {
  // plan searches c itself (from 2 up), so only M and n are checked.
  BoundParams P = parseBoundParams(Opts, /*C=*/2.0);
  double Target = Opts.getDouble("target", 2.5);
  CompactionPlan Plan = planCompactionBudget(P.M, P.N, Target);
  if (!Plan.Feasible) {
    std::cout << "target waste factor " << formatDouble(Target, 2)
              << " is not guaranteeable by any partial compactor at"
              << " these parameters\n";
    return 0;
  }
  std::cout << "to keep the guaranteed worst case at or below "
            << formatDouble(Target, 2) << " x live space (M="
            << formatWords(P.M) << ", n=" << formatWords(P.N) << "):\n"
            << "  move at least " << formatDouble(100.0 * Plan.MinMovedFraction, 2)
            << "% of all allocated words (c <= "
            << formatDouble(Plan.MaxQuota, 1) << ")\n"
            << "  Theorem 1 then forces at most "
            << formatDouble(Plan.AchievedLowerBound, 3) << " x\n";
  return 0;
}

int cmdSimulate(const OptionParser &Opts) {
  // family=realloc retargets the program and policy defaults at the
  // reallocation workbench; explicit words still win.
  ScenarioOptions Defaults;
  if (Opts.getString("family", "") == "realloc")
    Defaults = {.Program = "update-mix", .Policy = "realloc-jin"};
  ScenarioOptions S = parseScenario(Opts, Defaults);
  bool Verbose = Opts.getBool("verbose", false);
  uint64_t M = S.M();

  Heap H;
  auto MM = buildManager(S.Policy, H, S.C, /*LiveBound=*/M);
  std::unique_ptr<Program> Prog = buildProgram(Opts, S);
  ControllerSpec CtlSpec = parseControllerSpec(Opts);
  std::unique_ptr<BudgetController> Ctrl = createController(CtlSpec);

  EventLog Log;
  Execution::Options ExecOpts;
  std::string TracePath = Opts.getString("trace", "");
  if (!TracePath.empty())
    ExecOpts.Log = &Log;
  Execution E(*MM, *Prog, M, ExecOpts);
  attachController(E, *MM, *Ctrl);

  std::string TimelinePath = Opts.getString("timeline", "");
  TimelineSampler Sampler(samplerOptions(Opts));
  if (!TimelinePath.empty())
    Sampler.attach(E);

  if (Verbose) {
    while (true) {
      bool More = E.runStep();
      const HeapStats &HS = H.stats();
      std::cout << "step " << E.stepsRun() << ": live=" << HS.LiveWords
                << " heap=" << HS.HighWaterMark << " moved=" << HS.MovedWords
                << "\n"
                << renderHeapImage(H, HS.HighWaterMark, 72, 2) << "\n";
      if (!More)
        break;
    }
  }
  ExecutionResult R = E.run();
  FragmentationMetrics FM = measureFragmentation(H);

  std::cout << Prog->name() << " vs " << MM->name() << " (M="
            << formatWords(M) << ", n=" << formatWords(pow2(S.LogN))
            << ", c=" << S.C << ")\n"
            << "  heap size HS(A,P)   " << R.HeapSize << " words ("
            << formatDouble(R.wasteFactor(M), 3) << " x M)\n"
            << "  peak live           " << R.PeakLiveWords << "\n"
            << "  total allocated     " << R.TotalAllocatedWords << "\n"
            << "  moved (compaction)  " << R.MovedWords << "\n"
            << "  utilization         " << formatDouble(FM.Utilization, 3)
            << ", external fragmentation "
            << formatDouble(FM.ExternalFragmentation, 3) << "\n";
  // The reallocation family's score line; compaction-family output is
  // unchanged byte for byte.
  if (const ReallocationLedger *RL = MM->reallocationLedger())
    std::cout << "  overhead ratio      "
              << formatDouble(RL->overheadRatio(), 4) << " (worst prefix "
              << formatDouble(RL->maxPrefixRatio(), 4) << ", bound "
              << (std::isfinite(MM->overheadBound())
                      ? formatDouble(MM->overheadBound(), 1)
                      : std::string("inf"))
              << ")\n";
  // The default fixed trigger never denies, so the line (and the whole
  // gate) only appears when a controller was actually asked for —
  // keeping the report byte-identical to earlier releases otherwise.
  if (CtlSpec.Name != "fixed")
    std::cout << "  controller          " << Ctrl->name() << " (granted "
              << Ctrl->grants() << ", denied " << Ctrl->denials() << ")\n";

  if (!TracePath.empty()) {
    std::ofstream OS(TracePath);
    if (!OS)
      fail("cannot write '" + TracePath + "'");
    OS << "# pcbound trace: " << Prog->name() << " vs " << MM->name()
       << "\n";
    writeEventLog(OS, Log);
    std::cout << "  trace written to    " << TracePath << " ("
              << Log.size() << " events)\n";
  }
  if (!TimelinePath.empty()) {
    Sampler.finish(E);
    writeTimeline(Sampler.timeline(), TimelinePath);
    std::cout << "  timeline written to " << TimelinePath << " ("
              << Sampler.timeline().size() << " points, stride "
              << Sampler.stride() << ")\n";
  }
  return 0;
}

int cmdProfile(const OptionParser &Opts) {
  ScenarioOptions S = parseScenario(Opts, {.Program = "pf"});
  bool Chart = Opts.getBool("chart", true);
  std::string TimelinePath = Opts.getString("timeline", "");
  uint64_t M = S.M();

  Heap H;
  auto MM = buildManager(S.Policy, H, S.C, /*LiveBound=*/M);
  std::unique_ptr<Program> Prog = buildProgram(Opts, S);

  Execution E(*MM, *Prog, M);
  TimelineSampler Sampler(samplerOptions(Opts));
  Sampler.attach(E);

  Profiler Prof;
  auto Start = std::chrono::steady_clock::now();
  ExecutionResult R;
  {
    ProfilerScope Scope(Prof);
    R = E.run();
  }
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  Sampler.finish(E);
  const Timeline &TL = Sampler.timeline();

  std::cout << "# profile: " << Prog->name() << " vs " << MM->name()
            << " (M=" << formatWords(M) << ", n=" << formatWords(pow2(S.LogN))
            << ", c=" << S.C << ")\n"
            << "# HS " << R.HeapSize << " words ("
            << formatDouble(R.wasteFactor(M), 3) << " x M), " << R.Steps
            << " steps, moved " << R.MovedWords << ", wall "
            << formatDouble(Wall, 3) << "s, "
            << uint64_t(Wall > 0.0 ? double(R.Steps) / Wall : 0.0)
            << " steps/s\n"
            << "# timeline: " << TL.size() << " points, stride "
            << Sampler.stride() << "\n";
  if (Chart)
    TL.printCharts(std::cout);
  std::cout << "\n";
  Prof.printReport(std::cout, Wall);

  if (!TimelinePath.empty()) {
    writeTimeline(TL, TimelinePath);
    std::cout << "# timeline written to " << TimelinePath << "\n";
  }
  return 0;
}

/// The event-log front end shared by replay and replay-trace: reads
/// trace=FILE whole into \p Content, parses it into \p Log with
/// positioned diagnostics, audits it into \p Audit and prints the
/// one-line summary. Returns the file's path.
std::string loadEventLog(const OptionParser &Opts, const char *Command,
                         std::string &Content, EventLog &Log,
                         AuditReport &Audit) {
  std::string TracePath = Opts.getString("trace", "");
  if (TracePath.empty())
    fail(std::string(Command) + " needs trace=FILE");
  std::ifstream IS(TracePath);
  if (!IS)
    fail("cannot read '" + TracePath + "'");
  std::stringstream Buffer;
  Buffer << IS.rdbuf();
  Content = Buffer.str();
  std::istringstream TraceIS(Content);
  std::string Error;
  if (!readEventLog(TraceIS, Log, &Error))
    fail(TracePath + ": " + Error);
  Audit = auditEvents(Log.events());
  std::cout << "trace: " << Log.size() << " events, "
            << Audit.NumAllocations << " allocs, " << Audit.NumFrees
            << " frees, " << Audit.NumMoves << " moves (recorded HS "
            << Audit.HighWaterMark << ")\n";
  return TracePath;
}

int cmdReplay(const OptionParser &Opts) {
  ScenarioOptions S = parseScenario(Opts, {.Policy = "first-fit"});
  std::string Content;
  EventLog Log;
  AuditReport Audit;
  std::string TracePath = loadEventLog(Opts, "replay", Content, Log, Audit);
  if (!Audit.Consistent)
    fail(TracePath + ": inconsistent event log (a duplicate id, overlap,"
                     " double free, or a free or move that disagrees with"
                     " its allocation)");

  uint64_t M = S.M();
  std::vector<TraceOp> Trace = Log.toTrace();
  uint64_t Peak = tracePeakLiveWords(Trace);
  if (Peak > M)
    fail(TracePath + ": peak live words " + std::to_string(Peak) +
         " exceed M = 2^" + std::to_string(S.LogM) + " = " +
         std::to_string(M) + "; raise logm=");
  Heap H;
  auto MM = buildManager(S.Policy, H, S.C, /*LiveBound=*/M);
  TraceReplayProgram Prog(std::move(Trace));
  Execution E(*MM, Prog, M);
  ExecutionResult R = E.run();
  std::cout << "replayed through " << MM->name() << ": HS " << R.HeapSize
            << " words (" << formatDouble(R.wasteFactor(M), 3)
            << " x M), moved " << R.MovedWords << "\n";
  return 0;
}

/// Parses the policies= option ("all" — meaning the family= axis — or a
/// comma-separated list), validating every name against the factory.
std::vector<std::string> parsePolicyList(const OptionParser &Opts,
                                         const ScenarioOptions &S) {
  std::vector<std::string> Policies;
  std::string PolicyList = Opts.getString("policies", "all");
  if (PolicyList != "all") {
    std::istringstream IS(PolicyList);
    std::string Item;
    while (std::getline(IS, Item, ','))
      if (!Item.empty())
        Policies.push_back(Item);
  } else if (S.Family == "compaction") {
    Policies = compactionFamilyPolicies();
  } else if (S.Family == "realloc") {
    Policies = reallocManagerPolicies();
  } else {
    Policies = allManagerPolicies();
  }
  if (Policies.empty())
    fail("policies= must name at least one policy");
  for (const std::string &Policy : Policies) {
    Heap Probe;
    buildManager(Policy, Probe, 50.0, S.M());
  }
  return Policies;
}

int cmdSweep(const OptionParser &Opts) {
  ScenarioOptions S = parseScenario(Opts, {});
  uint64_t M = S.M();
  std::vector<double> Cs = parseNumberList(Opts, "cs", "10,25,50,75,100");
  // Validate every name and quota once, serially, before fanning out.
  std::vector<std::string> Policies = parsePolicyList(Opts, S);
  for (double C : Cs) {
    std::string Error;
    if (!createProgramChecked(S.Program, M, S.LogN, C, &Error))
      fail(Error);
  }
  Runner R = makeRunner(Opts);

  std::cout << "# sweep: " << S.Program << " vs " << Policies.size()
            << " policies x " << Cs.size() << " quotas (M=" << formatWords(M)
            << ", n=" << formatWords(pow2(S.LogN)) << ", threads="
            << R.threads() << ")\n";

  ExperimentGrid Grid;
  Grid.addAxis("c", Cs);
  Grid.addAxis("policy", Policies);

  ResultSink Sink({"c", "policy", "measured_HS", "measured_waste",
                   "moved_words", "overhead", "allocs", "frees", "steps"});
  std::string TimelinePrefix = Opts.getString("timeline", "");
  TimelineSampler::Options SO = samplerOptions(Opts);
  R.runRows(
      Grid,
      [&](const GridCell &Cell) {
        double C = Cell.num("c");
        const std::string &Policy = Cell.str("policy");
        Heap H;
        auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
        auto Prog = createProgram(S.Program, M, S.LogN, C);
        Execution E(*MM, *Prog, M);
        TimelineSampler Sampler(SO);
        if (!TimelinePrefix.empty())
          Sampler.attach(E);
        ExecutionResult Res = E.run();
        if (!TimelinePrefix.empty()) {
          Sampler.finish(E);
          std::string Tag = "c" + formatDouble(C, 0) + "-" + Policy;
          writeTimeline(Sampler.timeline(),
                        timelineCellPath(TimelinePrefix, Tag));
        }
        return Row()
            .addCell(formatDouble(C, 0))
            .addCell(Policy)
            .addCell(Res.HeapSize)
            .addCell(Res.wasteFactor(M), 3)
            .addCell(Res.MovedWords)
            .addCell(Res.overheadRatio(), 4)
            .addCell(Res.NumAllocations)
            .addCell(Res.NumFrees)
            .addCell(Res.Steps);
      },
      Sink);
  return Sink.emit(Opts) ? 0 : 1;
}

/// Everything one fuzz iteration produced, filled in by a worker thread
/// and reported serially afterwards.
struct FuzzIterationOutcome {
  bool Failed = false;
  uint64_t Seed = 0;
  std::string Pattern;
  size_t OriginalOps = 0;
  FuzzSchedule Minimal;
  DifferentialReport MinimalReport;
};

int cmdFuzz(const OptionParser &Opts) {
  ScenarioOptions S = parseScenario(Opts, {.LogM = 12});
  if (S.LogM > 24)
    fail("fuzz needs logm <= 24");
  // fuzz has no live= word: its live bound is M.
  SessionParams Shape = parseSessionShape(
      Opts, {.TargetOps = 384, .MaxLogSize = 8, .Trace = {}});
  Shape.LiveBound = S.M();
  checkSessionShape(Shape);
  uint64_t Iterations = Opts.getUInt("iterations", 50);
  uint64_t Deep = Opts.getUInt("deep", 64);
  std::string ReproDir = Opts.getString("repro-dir", ".");
  std::string TimelinePrefix = Opts.getString("timeline", "");
  if (Iterations == 0 || Shape.TargetOps == 0)
    fail("iterations= and ops= must be positive");

  std::vector<std::string> Policies = parsePolicyList(Opts, S);

  // trace=FILE fuzzes seeded windows of a recorded malloc trace instead
  // of cycling the synthetic patterns.
  std::shared_ptr<const std::vector<TraceOp>> FuzzTrace;
  std::string FuzzTracePath = Opts.getString("trace", "");
  if (!FuzzTracePath.empty()) {
    uint64_t TracePeak = 0;
    FuzzTrace = loadMallocTrace(FuzzTracePath, TracePeak);
    if (FuzzTrace->empty())
      fail(FuzzTracePath + ": empty trace");
  }

  DifferentialHarness::Options HO;
  HO.Policies = Policies;
  HO.C = S.C;
  HO.DeepCheckEvery = Deep;
  // The replay-determinism check rides on first-fit, which family=
  // realloc excludes from the policy list; re-home it so the check
  // stays live for the reallocation family.
  if (S.Family == "realloc")
    HO.ReplayCheckPolicy = "realloc-bucket";
  HO.Controller = parseControllerSpec(Opts);
  DifferentialHarness Harness(HO);

  Runner R = makeRunner(Opts);

  std::cout << "# fuzz: " << Iterations << " schedules x "
            << Policies.size() << " policies (seed=" << Shape.FleetSeed
            << ", ops=" << Shape.TargetOps << ", M=" << formatWords(S.M())
            << ", c=" << S.C << ", threads=" << R.threads()
            << (FuzzTrace ? ", trace-backed" : "") << ")\n";

  const std::vector<WorkloadFuzzer::Pattern> &Patterns =
      WorkloadFuzzer::allPatterns();
  std::vector<FuzzIterationOutcome> Outcomes{size_t(Iterations)};
  R.forEachCell(Iterations, [&](uint64_t I) {
    WorkloadFuzzer::Options FO;
    FO.Seed = splitSeed(Shape.FleetSeed, I);
    FO.NumOps = Shape.TargetOps;
    FO.LiveBound = Shape.LiveBound;
    FO.MaxLogSize = Shape.MaxLogSize;
    if (FuzzTrace) {
      FO.P = WorkloadFuzzer::Pattern::Trace;
      FO.TraceOps = FuzzTrace;
    } else {
      FO.P = Patterns[size_t(I) % Patterns.size()];
    }
    FuzzSchedule Schedule = WorkloadFuzzer(FO).generate();

    FuzzIterationOutcome &O = Outcomes[size_t(I)];
    O.Seed = FO.Seed;
    O.Pattern = Schedule.Pattern;
    O.OriginalOps = Schedule.size();
    if (Harness.run(Schedule).clean())
      return;
    O.Failed = true;
    O.Minimal = Harness.shrink(Schedule);
    O.MinimalReport = Harness.run(O.Minimal);
  });

  uint64_t TotalOps = 0;
  size_t NumFailed = 0;
  for (const FuzzIterationOutcome &O : Outcomes) {
    TotalOps += O.OriginalOps;
    if (!O.Failed)
      continue;
    ++NumFailed;
    std::cerr << "fuzz: seed " << O.Seed << " (" << O.Pattern << ", "
              << O.OriginalOps << " ops) violated invariants; minimized to "
              << O.Minimal.size() << " ops\n"
              << O.MinimalReport.summary();
    const PolicyRunResult *Failing = O.MinimalReport.firstFailing();
    if (!Failing && !O.MinimalReport.Runs.empty())
      Failing = &O.MinimalReport.Runs.front();
    if (!Failing)
      continue;
    std::string Path =
        ReproDir + "/fuzz-repro-seed" + std::to_string(O.Seed) + ".trace";
    std::ofstream OS(Path);
    if (!OS) {
      std::cerr << "fuzz: cannot write reproducer '" << Path << "'\n";
      continue;
    }
    DifferentialHarness::writeReproducer(OS, O.Minimal, *Failing);
    std::cerr << "fuzz: reproducer written; re-run with: pcbound"
              << " replay-trace trace=" << Path << "\n";
    if (!TimelinePrefix.empty()) {
      // Re-run just the failing policy with a sampler attached, so the
      // reproducer ships with the heap-state series that led to the
      // violation. Replay determinism checking is off: this run exists
      // only to observe.
      TimelineSampler Sampler;
      DifferentialHarness::Options TO;
      TO.Policies = {Failing->Policy};
      TO.C = S.C;
      TO.DeepCheckEvery = Deep;
      TO.Controller = HO.Controller;
      TO.ReplayCheckPolicy.clear();
      TO.OnExecution = [&Sampler](Execution &E, const std::string &) {
        Sampler.attach(E);
      };
      DifferentialHarness(TO).run(O.Minimal);
      std::string TLPath = timelineCellPath(
          TimelinePrefix, "seed" + std::to_string(O.Seed));
      std::string Error;
      if (!Sampler.timeline().writeFile(TLPath, &Error))
        std::cerr << "fuzz: " << Error << "\n";
      else
        std::cerr << "fuzz: timeline written to " << TLPath << " ("
                  << Sampler.timeline().size() << " points)\n";
    }
  }

  if (NumFailed == 0) {
    std::cout << "fuzz: OK — " << TotalOps << " ops, no invariant"
              << " violations under any policy\n";
    return 0;
  }
  std::cout << "fuzz: FAIL — " << NumFailed << " of " << Iterations
            << " schedules violated invariants (reproducers in '"
            << ReproDir << "')\n";
  return 1;
}

int cmdReplayTrace(const OptionParser &Opts) {
  std::string Content;
  EventLog Log;
  AuditReport Audit;
  loadEventLog(Opts, "replay-trace", Content, Log, Audit);

  // Reproducers written by `pcbound fuzz` carry their policy and quota in
  // a header comment; explicit options still win.
  ScenarioOptions Header{.Policy = "first-fit"};
  {
    const std::string Magic = "# pcbound-fuzz-repro";
    std::istringstream Lines(Content);
    std::string Line;
    while (std::getline(Lines, Line)) {
      if (Line.rfind(Magic, 0) != 0)
        continue;
      std::istringstream Fields(Line.substr(Magic.size()));
      std::string Field;
      while (Fields >> Field) {
        size_t Eq = Field.find('=');
        if (Eq == std::string::npos)
          continue;
        std::string Key = Field.substr(0, Eq);
        std::string Value = Field.substr(Eq + 1);
        if (Key == "policy")
          Header.Policy = Value;
        else if (Key == "c")
          Header.C = std::strtod(Value.c_str(), nullptr);
      }
      break;
    }
  }
  ScenarioOptions S = parseScenario(Opts, Header);
  {
    Heap Probe;
    buildManager(S.Policy, Probe, 50.0, /*LiveBound=*/pow2(12));
  }

  int NumProblems = 0;
  if (!Audit.Consistent) {
    std::cout << "recorded events: INCONSISTENT (double free, overlap,"
              << " or move of a dead object)\n";
    ++NumProblems;
  }
  if (!auditBudgetHistory(Log.events(), S.C)) {
    std::cout << "recorded events: c-partial budget (c=" << S.C
              << ") violated on some prefix\n";
    ++NumProblems;
  }

  std::vector<TraceOp> Trace = Log.toTrace();
  std::string Why;
  if (!validateTrace(Trace, &Why)) {
    std::cout << "replay: trace is not replayable (" << Why << ")\n"
              << "replay-trace: FAIL\n";
    return 1;
  }
  DifferentialHarness::Options HO;
  HO.Policies = {S.Policy};
  HO.C = S.C;
  HO.ReplayCheckPolicy = S.Policy;
  DifferentialReport Rep =
      DifferentialHarness(HO).run(scheduleFromTrace(Trace, 0, "replay"));
  for (const Violation &V : Rep.allViolations()) {
    std::cout << "violation: " << V.describe() << "\n";
    ++NumProblems;
  }
  if (!Rep.Runs.empty()) {
    const HeapStats &HS = Rep.Runs.front().Stats;
    std::cout << "replayed through " << S.Policy << " (c=" << S.C << "): HS "
              << HS.HighWaterMark << " words, moved " << HS.MovedWords
              << " in " << HS.NumMoves << " moves\n";
  }
  std::cout << (NumProblems ? "replay-trace: FAIL\n" : "replay-trace: OK\n");
  return NumProblems ? 1 : 0;
}

int cmdTraceRecord(const OptionParser &Opts) {
  std::string OutPath = Opts.getString("out", "");
  if (OutPath.empty())
    fail("trace-record needs out=FILE");
  TraceFraming Framing = TraceFraming::Binary;
  std::string FramingName = Opts.getString("format", "binary");
  if (!parseFraming(FramingName, Framing))
    fail("unknown format '" + FramingName + "' (text or binary)");
  ScenarioOptions S =
      parseScenario(Opts, {.Program = "", .Policy = "first-fit"});
  bool HaveSession = Opts.has("session");
  if (!S.Program.empty() && HaveSession)
    fail("pick one source: pattern=, program=, or session=");

  // Build the source before opening the output, so a rejected command
  // line leaves no file behind.
  Heap H;
  std::unique_ptr<MemoryManager> MM;
  std::unique_ptr<Program> Prog;
  std::vector<TraceOp> Schedule;
  std::string Source;
  if (!S.Program.empty()) {
    // A live program run, recorded off the heap's event stream. The
    // policy only shapes placement, which the trace does not record, but
    // stays selectable so budget-starved fallback paths (which can change
    // the *schedule* of a c-aware adversary) are reachable too.
    MM = buildManager(S.Policy, H, S.C, /*LiveBound=*/S.M());
    Prog = buildProgram(Opts, S);
  } else if (HaveSession) {
    // One fleet session, exactly as `pcbound serve` would generate it.
    uint64_t GlobalId = Opts.getUInt("session", 0);
    SessionParams Shape = parseSessionShape(Opts, {});
    checkSessionShape(Shape);
    Schedule = generateSessionTrace(Shape, GlobalId);
    Source = "session-" + std::to_string(GlobalId);
  } else {
    Source = Opts.getString("pattern", "mixed");
    WorkloadFuzzer::Options FO;
    const std::vector<WorkloadFuzzer::Pattern> &Patterns =
        WorkloadFuzzer::allPatterns();
    // Pattern::Trace is not addressable by name: it needs an external
    // trace to draw from.
    auto It = std::find_if(Patterns.begin(), Patterns.end(),
                           [&](WorkloadFuzzer::Pattern P) {
                             return WorkloadFuzzer::patternName(P) == Source;
                           });
    if (It == Patterns.end()) {
      std::string Names;
      for (WorkloadFuzzer::Pattern P : Patterns)
        Names += std::string(" ") + WorkloadFuzzer::patternName(P);
      fail("unknown pattern '" + Source + "' (one of:" + Names + ")");
    }
    SessionParams Shape = parseSessionShape(
        Opts,
        {.TargetOps = 4096, .LiveBound = 4096, .MaxLogSize = 8, .Trace = {}});
    checkSessionShape(Shape);
    FO.P = *It;
    FO.Seed = Shape.FleetSeed;
    FO.NumOps = Shape.TargetOps;
    FO.LiveBound = Shape.LiveBound;
    FO.MaxLogSize = Shape.MaxLogSize;
    Schedule = WorkloadFuzzer(FO).generate().materialize();
  }

  std::ofstream OS(OutPath, std::ios::binary);
  if (!OS)
    fail("cannot write '" + OutPath + "'");
  TraceRecorder Rec(OS, Framing);
  if (Prog) {
    H.setEventCallback(Rec.heapTap());
    Execution E(*MM, *Prog, S.M());
    E.run();
    Source = Prog->name();
  } else {
    Rec.record(Schedule);
  }
  OS.flush();
  if (!Rec.good() || !OS)
    fail("write failure on '" + OutPath + "'");
  std::cout << "trace-record: " << Rec.opsWritten() << " ops (" << Source
            << ") written to " << OutPath << " (" << framingName(Framing)
            << ")\n";
  return 0;
}

int cmdTraceRun(const OptionParser &Opts) {
  std::string TracePath = Opts.getString("trace", "");
  if (TracePath.empty())
    fail("trace-run needs trace=FILE");
  std::ifstream IS(TracePath, std::ios::binary);
  if (!IS)
    fail("cannot read '" + TracePath + "'");

  ScenarioOptions S = parseScenario(Opts, {.Policy = "first-fit"});
  TraceRunOptions RO;
  RO.Policy = S.Policy;
  RO.C = S.C;
  RO.Controller = parseControllerSpec(Opts);
  RO.LiveBound = Opts.getUInt("live", 0);
  RO.DeepCheckEvery = Opts.getUInt("deep", 0);

  std::string TimelinePath = Opts.getString("timeline", "");
  TimelineSampler Sampler(samplerOptions(Opts));
  if (!TimelinePath.empty()) {
    RO.OnExecution = [&Sampler](Execution &E) { Sampler.attach(E); };
    RO.OnFinished = [&Sampler](Execution &E) { Sampler.finish(E); };
  }

  Profiler Prof;
  bool Profile = Opts.getBool("profile", false);
  TraceRunReport Report;
  auto Start = std::chrono::steady_clock::now();
  {
    ProfilerScope Scope(Prof);
    Report = runTrace(IS, RO, TracePath);
  }
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  // The report names the trace by basename so it is relocatable across
  // build trees; diagnostics above keep the full path.
  size_t Slash = TracePath.find_last_of('/');
  Report.Trace =
      Slash == std::string::npos ? TracePath : TracePath.substr(Slash + 1);

  // Wall clock (and the profiler, which holds timers) are
  // nondeterministic, so they go to stderr; stdout carries only the
  // deterministic report.
  std::cerr << "# trace-run: wall " << formatDouble(Wall, 3) << "s, "
            << uint64_t(Wall > 0.0 ? double(Report.OpsStreamed) / Wall : 0.0)
            << " ops/s, live window " << Report.PeakLiveWindow << " ids\n";
  if (Profile)
    Prof.printReport(std::cerr, Wall);

  if (Opts.getBool("json", false))
    Report.printJson(std::cout);
  else
    Report.printText(std::cout);

  std::string OutPath = Opts.getString("out", "");
  if (!OutPath.empty()) {
    std::string Error;
    if (!Report.writeFile(OutPath, &Error))
      fail(Error);
    std::cerr << "# report written to " << OutPath << "\n";
  }
  if (!TimelinePath.empty()) {
    writeTimeline(Sampler.timeline(), TimelinePath);
    std::cerr << "# timeline written to " << TimelinePath << " ("
              << Sampler.timeline().size() << " points, stride "
              << Sampler.stride() << ")\n";
  }
  return 0;
}

int cmdServe(const OptionParser &Opts) {
  ScenarioOptions S = parseScenario(Opts, {});
  FleetOptions FO;
  FO.NumArenas = unsigned(Opts.getUInt("arenas", 4));
  FO.NumSessions = Opts.getUInt("sessions", 4096);
  FO.Threads = unsigned(Opts.getUInt("threads", 0));
  FO.SliceFlushes = std::max<uint64_t>(1, Opts.getUInt("slice", 32));
  FO.Shard.Policy = S.Policy;
  FO.Shard.C = S.C;
  FO.Shard.BatchSize = std::max<uint64_t>(1, Opts.getUInt("batch", 16));
  FO.Shard.MaxResident = std::max<uint64_t>(1, Opts.getUInt("resident", 8));
  FO.Shard.SampleEverySessions = Opts.getUInt("sample", 64);
  FO.Shard.Audit = Opts.getBool("audit", false);
  FO.Shard.Session = parseSessionShape(Opts, {});
  FO.ArenaRowLimit = unsigned(Opts.getUInt("arena-rows", 32));
  if (FO.NumArenas == 0)
    fail("arenas= must be positive");
  if (FO.Shard.Session.MaxLogSize > 24)
    fail("need maxlog <= 24");
  FO.Shard.Controller = parseControllerSpec(Opts);
  std::string SessionTracePath = Opts.getString("trace", "");
  if (!SessionTracePath.empty()) {
    // Trace-backed fleet: every session replays this recorded schedule.
    // The session live bound must cover the trace's own peak, or the
    // arena bound would under-provision the managers that rely on it.
    uint64_t TracePeak = 0;
    FO.Shard.Session.Trace = loadMallocTrace(SessionTracePath, TracePeak);
    FO.Shard.Session.LiveBound =
        std::max(FO.Shard.Session.LiveBound, std::max<uint64_t>(1, TracePeak));
  } else {
    checkSessionShape(FO.Shard.Session);
  }

  Profiler Prof;
  if (Opts.getBool("profile", false))
    FO.Prof = &Prof;

  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();

  // Wall clock and scheduler observability are nondeterministic, so
  // they go to stderr; stdout carries only the deterministic report.
  double Wall = Fleet.wallSeconds();
  std::cerr << "# serve: wall " << formatDouble(Wall, 3) << "s, threads="
            << Fleet.threads() << ", slices=" << Fleet.slices()
            << ", steals=" << Fleet.steals() << ", "
            << uint64_t(Wall > 0.0 ? double(R.TotalSessions) / Wall : 0.0)
            << " sessions/s\n";
  if (FO.Prof)
    Prof.printReport(std::cerr, Wall);

  if (Opts.getBool("json", false)) {
    R.printJson(std::cout);
  } else {
    R.printText(std::cout);
    // Controller totals are deterministic (each shard's gate is a pure
    // function of its fixed schedule), so they belong on stdout — but
    // only when a gate was actually requested, keeping the default
    // report byte-identical to earlier releases. JSON output stays pure
    // FleetReport either way.
    if (FO.Shard.Controller.Name != "fixed") {
      uint64_t Grants = 0, Denials = 0;
      for (unsigned A = 0; A != FO.NumArenas; ++A) {
        Grants += Fleet.shard(A).controller().grants();
        Denials += Fleet.shard(A).controller().denials();
      }
      std::cout << "controller " << FO.Shard.Controller.Name << ": "
                << Grants << " grants, " << Denials << " denials\n";
    }
  }

  std::string OutPath = Opts.getString("out", "");
  if (!OutPath.empty()) {
    std::string Error;
    if (!R.writeFile(OutPath, &Error))
      fail(Error);
    std::cerr << "# report written to " << OutPath << "\n";
  }
  std::string TimelinePath = Opts.getString("timeline", "");
  if (!TimelinePath.empty()) {
    writeTimeline(R.FleetTimeline, TimelinePath);
    std::cerr << "# fleet timeline written to " << TimelinePath << " ("
              << R.FleetTimeline.size() << " points)\n";
  }
  return R.clean() ? 0 : 1;
}

/// The positive integers of an exact list option: Ms=, ns=, and cs=, where
/// \p Quotas also admits "inf" (returned as 0, the solver's convention
/// for the non-moving manager). The list must not be empty.
std::vector<uint64_t> parseExactList(const OptionParser &Opts,
                                     const std::string &Name,
                                     const std::string &Default,
                                     bool Quotas = false) {
  std::vector<uint64_t> Values;
  for (double V : parseNumberList(Opts, Name, Default)) {
    if (Quotas && V == HUGE_VAL) {
      Values.push_back(0);
      continue;
    }
    if (!(V >= 1.0 && V <= 1e15 && V == std::floor(V))) {
      std::ostringstream Item;
      Item << V;
      fail("invalid " + std::string(Quotas ? "quota" : "number") + " '" +
           Item.str() + "' in " + Name + "=" +
           (Quotas ? " (positive integer or inf)" : ""));
    }
    Values.push_back(uint64_t(V));
  }
  if (Values.empty())
    fail(Name + "= must name at least one value");
  return Values;
}

/// A bound column for the exact table: "-" when the closed form does not
/// apply at the cell's parameters.
std::string formatBound(double Words) {
  return std::isnan(Words) ? std::string("-") : formatDouble(Words, 1);
}

int cmdExact(const OptionParser &Opts) {
  std::vector<uint64_t> Ms = parseExactList(Opts, "Ms", "2,4,8");
  std::vector<uint64_t> Ns = parseExactList(Opts, "ns", "2,4");
  std::vector<uint64_t> Cs =
      parseExactList(Opts, "cs", "1,2,4,inf", /*Quotas=*/true);

  struct ExactCell {
    ExactParams P;
    std::string CLabel;
  };
  std::vector<ExactCell> Cells;
  unsigned Skipped = 0;
  for (uint64_t M : Ms)
    for (uint64_t N : Ns)
      for (uint64_t C : Cs) {
        ExactParams P;
        P.M = M;
        P.N = N;
        P.C = C;
        P.BudgetCap = Opts.getUInt("budget-cap", 0);
        P.NodeLimit = Opts.getUInt("node-limit", 0);
        P.MaxArena = unsigned(Opts.getUInt("max-arena", 0));
        std::string Label = C == 0 ? "inf" : std::to_string(C);
        if (N > M) {
          // Out of domain, not an error: a P2(M, n) program can never
          // allocate an object larger than its live bound.
          ++Skipped;
          continue;
        }
        if (!P.valid())
          fail("cell M=" + std::to_string(M) + " n=" + std::to_string(N) +
               " c=" + Label +
               " is outside the solvable range (M <= 24, power-of-two"
               " n <= 16, arena <= 30)");
        Cells.push_back({P, Label});
      }

  Runner R = makeRunner(Opts);

  std::cout << "# exact: solving " << Cells.size() << " cells ("
            << Skipped << " out-of-domain skipped, threads=" << R.threads()
            << ")\n";

  std::vector<ExactCertificate> Certs{Cells.size()};
  R.forEachCell(Cells.size(), [&](uint64_t I) {
    const ExactParams &P = Cells[size_t(I)].P;
    Certs[size_t(I)] = certifyCell(P, solveExact(P));
  });

  ResultSink Sink({"M", "n", "c", "exact", "lower", "robson", "thm2",
                   "upper", "nodes", "status"});
  uint64_t NumOk = 0, NumStrict = 0, NumFailed = 0;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const ExactCell &Cell = Cells[I];
    const ExactCertificate &Cert = Certs[I];
    uint64_t Nodes = 0;
    for (const ArenaOutcome &A : Cert.Result.Arenas)
      Nodes += A.Nodes;
    std::string Status = !Cert.Result.Solved ? "unsolved"
                         : !Cert.ok()        ? "FAIL"
                         : Cert.Strict       ? "ok-strict"
                                             : "ok";
    if (Cert.ok()) {
      ++NumOk;
      NumStrict += Cert.Strict;
    } else {
      ++NumFailed;
      std::cerr << "exact: certificate FAILED: " << Cert.describe() << "\n";
    }
    Sink.append(Row()
                    .addCell(Cell.P.M)
                    .addCell(Cell.P.N)
                    .addCell(Cell.CLabel)
                    .addCell(Cert.Result.Solved
                                 ? std::to_string(Cert.Result.ExactWords)
                                 : std::string("-"))
                    .addCell(formatBound(Cert.LowerWords))
                    .addCell(formatBound(Cert.RobsonWords))
                    .addCell(formatBound(Cert.Theorem2Words))
                    .addCell(formatBound(Cert.UpperWords))
                    .addCell(Nodes)
                    .addCell(Status));
  }

  // Ground truth must be monotone in the quota: a larger integer c (and
  // c = infinity above all of them) means strictly less compaction, so
  // the forced heap size can only grow. A violation convicts the solver,
  // not the bounds layer.
  unsigned NumMonotoneViolations = 0;
  std::map<std::pair<uint64_t, uint64_t>,
           std::vector<std::pair<uint64_t, uint64_t>>>
      ByCell; // (M, n) -> sorted (quota rank, exact)
  for (size_t I = 0; I != Cells.size(); ++I) {
    if (!Certs[I].Result.Solved)
      continue;
    uint64_t Rank = Cells[I].P.C == 0 ? UINT64_MAX : Cells[I].P.C;
    ByCell[{Cells[I].P.M, Cells[I].P.N}].push_back(
        {Rank, Certs[I].Result.ExactWords});
  }
  for (auto &[MN, Series] : ByCell) {
    std::sort(Series.begin(), Series.end());
    for (size_t I = 1; I < Series.size(); ++I)
      if (Series[I].second < Series[I - 1].second) {
        ++NumMonotoneViolations;
        std::cerr << "exact: non-monotone in c at M=" << MN.first
                  << " n=" << MN.second << ": exact dropped from "
                  << Series[I - 1].second << " to " << Series[I].second
                  << " as c grew\n";
      }
  }

  std::string WitnessDir = Opts.getString("witness-dir", "");
  if (!WitnessDir.empty()) {
    for (size_t I = 0; I != Cells.size(); ++I) {
      if (Certs[I].Result.Witness.empty())
        continue;
      const ExactParams &P = Cells[I].P;
      std::string Path = WitnessDir + "/exact-M" + std::to_string(P.M) +
                         "-n" + std::to_string(P.N) + "-c" +
                         Cells[I].CLabel + ".trace";
      std::ofstream OS(Path);
      if (!OS)
        fail("cannot write witness '" + Path + "'");
      OS << "# pcbound exact witness: M=" << P.M << " n=" << P.N
         << " c=" << Cells[I].CLabel << " proves HS >= "
         << Certs[I].Result.ExactWords << "\n";
      writeEventLog(OS, witnessToEventLog(Certs[I].Result.Witness));
    }
    std::cout << "# witness traces written to " << WitnessDir
              << "/ (replayable with pcbound replay-trace)\n";
  }

  if (!Sink.emit(Opts))
    return 1;
  bool Failed = NumFailed != 0 || NumMonotoneViolations != 0;
  std::cout << "exact: " << (Failed ? "FAIL" : "OK") << " — " << NumOk
            << " of " << Cells.size() << " cells certified (" << NumStrict
            << " strictly separating Theorem 1 from Theorem 2)\n";
  return Failed ? 1 : 0;
}

int cmdPolicies(const OptionParser &) {
  std::cout << "# manager policies\n";
  for (const std::string &Policy : allManagerPolicies())
    std::cout << Policy << "\n";
  std::cout << "# programs\n";
  for (const std::string &Name : allProgramNames())
    std::cout << Name << "\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) try {
  static const std::map<std::string, int (*)(const OptionParser &)>
      Commands = {{"bounds", cmdBounds},
                  {"plan", cmdPlan},
                  {"simulate", cmdSimulate},
                  {"profile", cmdProfile},
                  {"replay", cmdReplay},
                  {"sweep", cmdSweep},
                  {"fuzz", cmdFuzz},
                  {"replay-trace", cmdReplayTrace},
                  {"trace-record", cmdTraceRecord},
                  {"trace-run", cmdTraceRun},
                  {"serve", cmdServe},
                  {"exact", cmdExact},
                  {"policies", cmdPolicies}};
  OptionParser Opts(argc, argv);
  if (Opts.positional().empty())
    return usage();
  auto It = Commands.find(Opts.positional()[0]);
  return It == Commands.end() ? usage() : It->second(Opts);
} catch (const std::exception &Ex) {
  // The one error path: every domain error lands here.
  std::cerr << "error: " << Ex.what() << "\n";
  return 1;
}
