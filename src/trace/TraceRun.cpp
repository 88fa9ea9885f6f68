//===- trace/TraceRun.cpp - Streaming trace replay -----------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceRun.h"

#include "heap/Heap.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"

#include <cassert>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

using namespace pcb;

bool StreamingTraceProgram::readAhead() {
  if (!Reader) {
    if (NextOp == Ops.size())
      return false;
    Pending = Ops[NextOp++];
    return true;
  }
  ScopedTimer T(Profiler::SecTraceRead);
  return Reader->next(Pending);
}

bool StreamingTraceProgram::step(MutatorContext &Ctx) {
  if (!Primed) {
    HavePending = readAhead();
    Primed = true;
  }
  if (!HavePending)
    return false;
  MallocOp Op = Pending;
  HavePending = readAhead();
  Profiler::bump(Profiler::CtrTraceOps);
  if (Op.isAlloc()) {
    // The reader (or checkSchedule) rejected duplicate live ids, so the
    // insert must be new.
    ObjectId Id = Ctx.allocate(Op.Size);
    bool Inserted = LiveIds.emplace(Op.Id, Id).second;
    assert(Inserted && "schedule allocates a live id");
    (void)Inserted;
    if (LiveIds.size() > MaxLiveWindow)
      MaxLiveWindow = LiveIds.size();
  } else {
    auto It = LiveIds.find(Op.Id);
    assert(It != LiveIds.end() && "schedule frees an id that is not live");
    Ctx.free(It->second);
    LiveIds.erase(It);
  }
  return HavePending;
}

TraceRunReport pcb::runTrace(TraceReader &R, const TraceRunOptions &Opts,
                             const std::string &TraceName) {
  std::string Error;
  std::unique_ptr<BudgetController> Ctrl =
      createControllerChecked(Opts.Controller, &Error);
  if (!Ctrl)
    throw std::runtime_error(Error);

  Heap H;
  std::unique_ptr<MemoryManager> MM =
      createManagerChecked(Opts.Policy, H, Opts.C, Opts.LiveBound, &Error);
  if (!MM)
    throw std::runtime_error(Error);

  // Streaming means the trace's peak live volume is unknown up front;
  // without a caller-supplied bound the driver's M check runs against an
  // effectively unbounded M and the report's waste factor is taken
  // against the trace's own measured peak instead.
  uint64_t M = Opts.LiveBound != 0 ? Opts.LiveBound : uint64_t(1) << 62;

  StreamingTraceProgram Prog(R);
  Execution::Options EO;
  EO.DeepCheckEvery = Opts.DeepCheckEvery;
  EO.MaxSteps = UINT64_MAX; // the stream's end is the stop condition
  Execution E(*MM, Prog, M, EO);
  attachController(E, *MM, *Ctrl);
  if (Opts.OnExecution)
    Opts.OnExecution(E);

  TraceRunReport Rep;
  Rep.Exec = E.run();
  if (Opts.OnFinished)
    Opts.OnFinished(E);

  if (R.failed())
    throw std::runtime_error(TraceName + ": " + R.error());

  Rep.Trace = TraceName;
  Rep.Policy = MM->name();
  Rep.Controller = Ctrl->name();
  Rep.C = Opts.C;
  Rep.OpsStreamed = R.opsRead();
  Rep.PeakLiveWindow = Prog.maxLiveWindow();
  const CompactionLedger &L = MM->ledger();
  Rep.BudgetWords = L.isUnlimited() ? 0 : L.budgetWords();
  Rep.BudgetBurnPct = Rep.BudgetWords != 0 ? 100.0 * double(Rep.Exec.MovedWords) /
                                                 double(Rep.BudgetWords)
                                           : 0.0;
  Rep.WasteFactor = Rep.Exec.PeakLiveWords != 0
                        ? double(Rep.Exec.HeapSize) /
                              double(Rep.Exec.PeakLiveWords)
                        : 0.0;
  Rep.ControllerGrants = Ctrl->grants();
  Rep.ControllerDenials = Ctrl->denials();
  return Rep;
}

TraceRunReport pcb::runTrace(std::istream &IS, const TraceRunOptions &Opts,
                             const std::string &TraceName) {
  TraceReader R(IS, Opts.LiveBound != 0 ? Opts.LiveBound : AddrLimit);
  return runTrace(R, Opts, TraceName);
}

namespace {
std::string fixed2(double V) {
  std::ostringstream SS;
  SS << std::fixed << std::setprecision(2) << V;
  return SS.str();
}

std::string fixed4(double V) {
  std::ostringstream SS;
  SS << std::fixed << std::setprecision(4) << V;
  return SS.str();
}
} // namespace

void TraceRunReport::printText(std::ostream &OS) const {
  OS << "trace-run report\n";
  OS << "  trace:       " << Trace << '\n';
  OS << "  ops:         " << OpsStreamed << " (" << Exec.NumAllocations
     << " allocs, " << Exec.NumFrees << " frees)\n";
  OS << "  policy:      " << Policy << " (c=" << fixed2(C) << ")\n";
  OS << "  controller:  " << Controller << '\n';
  OS << "  HS:          " << Exec.HeapSize << " words\n";
  OS << "  peak live:   " << Exec.PeakLiveWords << " words (waste "
     << fixed4(WasteFactor) << "x)\n";
  OS << "  live window: " << PeakLiveWindow << " ids\n";
  OS << "  moved:       " << Exec.MovedWords << " words in " << Exec.NumMoves
     << " moves\n";
  OS << "  budget:      " << BudgetWords << " words (burn "
     << fixed2(BudgetBurnPct) << "%)\n";
  OS << "  gate:        " << ControllerGrants << " grants, "
     << ControllerDenials << " denials\n";
}

void TraceRunReport::printJson(std::ostream &OS) const {
  OS << "{\n";
  OS << "  \"trace\": \"" << Trace << "\",\n";
  OS << "  \"policy\": \"" << Policy << "\",\n";
  OS << "  \"controller\": \"" << Controller << "\",\n";
  OS << "  \"c\": " << fixed2(C) << ",\n";
  OS << "  \"ops\": " << OpsStreamed << ",\n";
  OS << "  \"allocs\": " << Exec.NumAllocations << ",\n";
  OS << "  \"frees\": " << Exec.NumFrees << ",\n";
  OS << "  \"hs_words\": " << Exec.HeapSize << ",\n";
  OS << "  \"peak_live_words\": " << Exec.PeakLiveWords << ",\n";
  OS << "  \"waste_factor\": " << fixed4(WasteFactor) << ",\n";
  OS << "  \"peak_live_window\": " << PeakLiveWindow << ",\n";
  OS << "  \"moved_words\": " << Exec.MovedWords << ",\n";
  OS << "  \"num_moves\": " << Exec.NumMoves << ",\n";
  OS << "  \"budget_words\": " << BudgetWords << ",\n";
  OS << "  \"budget_burn_pct\": " << fixed2(BudgetBurnPct) << ",\n";
  OS << "  \"controller_grants\": " << ControllerGrants << ",\n";
  OS << "  \"controller_denials\": " << ControllerDenials << "\n";
  OS << "}\n";
}

bool TraceRunReport::writeFile(const std::string &Path,
                               std::string *Error) const {
  std::ofstream OS(Path);
  if (!OS) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Json = Path.size() >= 5 && Path.compare(Path.size() - 5, 5, ".json") == 0;
  if (Json)
    printJson(OS);
  else
    printText(OS);
  OS.flush();
  if (!OS) {
    if (Error)
      *Error = "error writing '" + Path + "'";
    return false;
  }
  return true;
}

std::vector<MallocOp> pcb::materializeTrace(TraceReader &R,
                                            std::string *Error) {
  std::vector<MallocOp> Ops;
  OrdinalRenumbering Renumber;
  MallocOp Op;
  while (R.next(Op))
    Ops.push_back(Renumber(Op));
  if (R.failed()) {
    if (Error)
      *Error = R.error();
    return {};
  }
  return Ops;
}
