//===- runner/Runner.cpp - Parallel experiment execution -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "runner/Runner.h"

#include "obs/Profiler.h"
#include "support/OptionParser.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifdef _WIN32
#include <io.h>
#define PCB_STDERR_ISATTY() (_isatty(_fileno(stderr)) != 0)
#else
#include <unistd.h>
#define PCB_STDERR_ISATTY() (isatty(fileno(stderr)) != 0)
#endif

using namespace pcb;

namespace {

/// Throttled cells-done / elapsed / ETA line on stderr. tick() is called
/// by whichever worker finished a cell; contended updates simply skip
/// their report (try_lock), so reporting never serializes the pool.
class ProgressReporter {
public:
  ProgressReporter(uint64_t Total, bool Enabled)
      : Total(Total), Enabled(Enabled),
        Start(std::chrono::steady_clock::now()) {}

  void tick() {
    uint64_t DoneNow = Done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!Enabled)
      return;
    std::unique_lock<std::mutex> Lock(Mu, std::try_to_lock);
    if (!Lock.owns_lock())
      return;
    auto Now = std::chrono::steady_clock::now();
    if (DoneNow != Total && Now - LastReport < std::chrono::milliseconds(250))
      return;
    LastReport = Now;
    double Elapsed = std::chrono::duration<double>(Now - Start).count();
    double Eta = DoneNow == 0
                     ? 0.0
                     : Elapsed / double(DoneNow) * double(Total - DoneNow);
    std::fprintf(stderr, "\r# cells %llu/%llu (%3.0f%%) elapsed %.1fs eta %.1fs ",
                 (unsigned long long)DoneNow, (unsigned long long)Total,
                 Total == 0 ? 100.0 : 100.0 * double(DoneNow) / double(Total),
                 Elapsed, Eta);
    Reported = true;
  }

  ~ProgressReporter() {
    if (Enabled && Reported)
      std::fprintf(stderr, "\n");
  }

private:
  uint64_t Total;
  bool Enabled;
  std::chrono::steady_clock::time_point Start;
  std::chrono::steady_clock::time_point LastReport{};
  std::atomic<uint64_t> Done{0};
  std::mutex Mu;
  bool Reported = false;
};

} // namespace

Runner::Runner(RunnerOptions Opts)
    : NumThreads(Opts.Threads == 0 ? defaultThreads() : Opts.Threads),
      Progress(Opts.Progress), Prof(Opts.Prof) {}

unsigned Runner::defaultThreads() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

bool Runner::progressEnabled() const {
  if (Progress == 0)
    return false;
  if (Progress > 0)
    return true;
  return PCB_STDERR_ISATTY();
}

void Runner::forEachCell(uint64_t NumCells,
                         const std::function<void(uint64_t)> &Fn) const {
  CellSeconds.assign(size_t(NumCells), 0.0);
  WallSeconds = 0.0;
  if (NumCells == 0)
    return;
  ProgressReporter Prog(NumCells, progressEnabled());
  auto WallStart = std::chrono::steady_clock::now();
  auto RunCell = [&](uint64_t I) {
    auto Start = std::chrono::steady_clock::now();
    Fn(I);
    CellSeconds[size_t(I)] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
  };

  if (NumThreads <= 1 || NumCells == 1) {
    // Inline cells see the calling thread's profiler; merge into the
    // aggregate only if the caller asked for one that is not already the
    // installed profiler (else the sections would double-count).
    Profiler Local;
    ProfilerScope Scope(Prof && Prof != Profiler::current() ? &Local
                                                            : nullptr);
    for (uint64_t I = 0; I != NumCells; ++I) {
      RunCell(I);
      Prog.tick();
    }
    if (Prof && Prof != Profiler::current())
      Prof->merge(Local);
    WallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - WallStart)
                      .count();
    return;
  }

  std::atomic<uint64_t> NextCell{0};
  std::exception_ptr FirstError;
  std::mutex ErrorMu;
  auto Work = [&] {
    // Workers never inherit the caller's thread-local profiler; give each
    // its own and merge (commutative adds) after the join.
    Profiler Local;
    ProfilerScope Scope(Prof ? &Local : nullptr);
    for (;;) {
      uint64_t I = NextCell.fetch_add(1, std::memory_order_relaxed);
      if (I >= NumCells)
        break;
      try {
        RunCell(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMu);
        if (!FirstError)
          FirstError = std::current_exception();
        // Drain the queue so the other workers stop picking up cells.
        NextCell.store(NumCells, std::memory_order_relaxed);
        break;
      }
      Prog.tick();
    }
    if (Prof) {
      std::lock_guard<std::mutex> Lock(ErrorMu);
      Prof->merge(Local);
    }
  };

  unsigned Spawn =
      unsigned(std::min<uint64_t>(uint64_t(NumThreads), NumCells));
  std::vector<std::thread> Pool;
  Pool.reserve(Spawn);
  for (unsigned T = 0; T != Spawn; ++T)
    Pool.emplace_back(Work);
  for (std::thread &Th : Pool)
    Th.join();
  WallSeconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - WallStart)
                    .count();
  if (FirstError)
    std::rethrow_exception(FirstError);
}

void Runner::run(const ExperimentGrid &G,
                 const std::function<std::vector<Row>(const GridCell &)> &Fn,
                 ResultSink &Sink) const {
  Sink.resizeCells(G.numCells());
  forEachCell(G.numCells(),
              [&](uint64_t I) { Sink.store(I, Fn(G.cell(I))); });
}

void Runner::runRows(const ExperimentGrid &G,
                     const std::function<Row(const GridCell &)> &Fn,
                     ResultSink &Sink) const {
  run(
      G,
      [&Fn](const GridCell &Cell) {
        return std::vector<Row>{Fn(Cell)};
      },
      Sink);
}

Runner pcb::makeRunner(const OptionParser &Opts) {
  RunnerOptions RO;
  RO.Threads = unsigned(Opts.getUInt("threads", 0));
  if (Opts.has("progress"))
    RO.Progress = Opts.getBool("progress", true) ? 1 : 0;
  return Runner(RO);
}

std::vector<double> pcb::parseNumberList(const OptionParser &Opts,
                                         const std::string &Name,
                                         const std::string &Default) {
  std::vector<double> Values;
  std::istringstream IS(Opts.getString(Name, Default));
  std::string Item;
  while (std::getline(IS, Item, ',')) {
    if (Item.empty())
      continue;
    char *End = nullptr;
    double Value = std::strtod(Item.c_str(), &End);
    if (!End || *End != '\0')
      throw std::invalid_argument("invalid number '" + Item + "' in " + Name +
                                  "=");
    Values.push_back(Value);
  }
  return Values;
}

std::vector<std::string> pcb::parseNameList(const OptionParser &Opts,
                                            const std::string &Name,
                                            const std::string &Default) {
  std::vector<std::string> Names;
  std::istringstream IS(Opts.getString(Name, Default));
  std::string Item;
  while (std::getline(IS, Item, ','))
    if (!Item.empty())
      Names.push_back(Item);
  return Names;
}

unsigned pcb::parseLogWord(const OptionParser &Opts, const std::string &Name,
                           unsigned Default) {
  uint64_t Log = Opts.getUInt(Name, Default);
  if (Log > 60)
    throw std::invalid_argument(
        Name + "=" + std::to_string(Log) + " is out of range: 2^" + Name +
        " words must fit the 2^60-word address space (" + Name + " <= 60)");
  return unsigned(Log);
}
