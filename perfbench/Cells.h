//===- perfbench/Cells.h - Benchmark cells and layer shims -------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a list of cells. Set-up builds every cell's state (heap,
/// manager, program, fleet shards, recorded traces) once; each pass then
/// forks one child per cell, so the child runs a pristine copy and a cell
/// that crashes costs only itself. The child fills a CellRecord and ships
/// it to the parent through a pipe.
///
/// The shims here are the traced run's span sources: they sit at the
/// layer boundaries that pcbound's public API exposes (Program, the
/// MutatorContext the driver hands it) and time the calls that cross
/// them. Everything below the manager boundary is timed by the existing
/// Profiler sections, read after the cell finishes.
///
//===----------------------------------------------------------------------===//

#ifndef PCBBENCH_CELLS_H
#define PCBBENCH_CELLS_H

#include "adversary/Program.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pcbbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nanosBetween(Clock::time_point Start, Clock::time_point End) {
  return uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
          .count());
}

inline uint64_t nanosSince(Clock::time_point Start) {
  return nanosBetween(Start, Clock::now());
}

/// Durations are kept in memory as 32-bit nanoseconds (4.2 s ceiling).
inline uint32_t clampNs(uint64_t Ns) {
  return Ns > UINT32_MAX ? UINT32_MAX : uint32_t(Ns);
}

/// Exact counts and summed times a cell reports. Times are nanoseconds;
/// the spans they come from are listed beside each field.
enum Stat : unsigned {
  StRunNs,        ///< the cell's timed region (runner span)
  StDriverNs,     ///< Execution::runStep (traced) or ArenaShard::runSlice
  StProgStepNs,   ///< Program::step (adversary span, traced)
  StOnMovedNs,    ///< Program::onObjectMoved (adversary span, traced)
  StAllocNs,      ///< MutatorContext::allocate (mm span, traced)
  StAllocCalls,
  StFreeNs,       ///< MutatorContext::free (mm span, traced)
  StFreeCalls,
  StEvents,       ///< heap allocations + frees + moves
  StHighWater,    ///< the cell's HS, in words (max over a fleet's arenas)
  StMovedWords,
  StBudgetWords,  ///< c-partial budget granted (0 for unlimited ledgers)
  StOpsApplied,   ///< fleet requests applied
  StBackfills,    ///< realloc-bucket backfill moves
  StParseNs,      ///< parse-only TraceReader pass (trace cells, traced)
  StPeakRssKb,    ///< peak resident memory the cell's process added
  NumStats
};

/// The layers a traced run partitions wall time into. Each is a self
/// time: its spans minus the spans of other layers nested inside them.
enum Layer : unsigned {
  LyDriver,       ///< Execution (invariant checks, step observers)
  LyAdversary,    ///< Program::step and onObjectMoved
  LyTrace,        ///< TraceReader::next inside the streaming program
  LyMm,           ///< manager policy, compaction, realloc, spend gate
  LyHeap,         ///< Heap place/free/move with their FreeSpaceIndex work
  LyService,      ///< ArenaShard::runSlice outside its flushes
  LyUnattributed, ///< time inside no layer's span, or in a span whose
                  ///< layer the shims cannot resolve
  NumLayers
};

/// Everything one cell run sends back to the parent.
struct CellRecord {
  /// "ok", or "invariant" when a checked property failed (Detail says
  /// which). Crashes never get here; the parent sees the signal.
  std::string Status = "ok";
  std::string Detail;
  /// The deterministic result row (simulated quantities only).
  std::string Row;
  uint64_t Stats[NumStats] = {};
  /// Self time per layer in nanoseconds, traced runs only; sums to
  /// Stats[StRunNs].
  int64_t Self[NumLayers] = {};
  /// Profiler sections (calls, nanos) and counters, traced runs only.
  std::vector<uint64_t> Profile;
  /// Host time per block of BlockCalls requests, every run. The blocks
  /// partition the timed region, and a deterministic cell closes the same
  /// blocks in every pass.
  std::vector<uint32_t> BlockNs;
  /// Host time per allocate / free call, traced runs only.
  std::vector<uint32_t> AllocNs;
  std::vector<uint32_t> FreeNs;

  void fail(std::string Why) {
    if (Status == "ok") {
      Status = "invariant";
      Detail = std::move(Why);
    }
  }
};

/// One cell of a workload: state built during set-up, run in a child.
class CellState {
public:
  explicit CellState(std::string Name, bool SeedFree)
      : Name(std::move(Name)), SeedFree(SeedFree) {}
  virtual ~CellState() = default;
  CellState(const CellState &) = delete;
  CellState &operator=(const CellState &) = delete;

  /// Runs the cell to completion. \p Traced makes the shims time every
  /// call and installs a Profiler; the block timings are taken either way.
  virtual void run(bool Traced, CellRecord &Out) = 0;

  const std::string Name;
  /// True when the cell's inputs do not depend on --seed, so its
  /// committed expected row applies to every seed.
  const bool SeedFree;
};

/// Host time is sampled per block of this many mutator requests: allocate
/// and free calls on the Execution workloads, the requests of one flush
/// (a batch of up to 16) on the fleet.
constexpr unsigned BlockCalls = 16;

/// The MutatorContext shim: placed between a program and the real
/// Execution. In every run it closes a block after each BlockCalls-th
/// allocate or free; in traced runs it also times every call.
class TimedContext : public pcb::MutatorContext {
public:
  TimedContext(CellRecord &Out, bool Traced) : Out(Out), Traced(Traced) {}

  pcb::ObjectId allocate(uint64_t Size) override {
    if (!Traced) {
      pcb::ObjectId Id = Inner->allocate(Size);
      tick();
      return Id;
    }
    auto Start = Clock::now();
    pcb::ObjectId Id = Inner->allocate(Size);
    uint64_t Ns = nanosSince(Start);
    Out.Stats[StAllocNs] += Ns;
    ++Out.Stats[StAllocCalls];
    Out.AllocNs.push_back(clampNs(Ns));
    tick();
    return Id;
  }
  void free(pcb::ObjectId Id) override {
    if (!Traced) {
      Inner->free(Id);
      tick();
      return;
    }
    auto Start = Clock::now();
    Inner->free(Id);
    uint64_t Ns = nanosSince(Start);
    Out.Stats[StFreeNs] += Ns;
    ++Out.Stats[StFreeCalls];
    Out.FreeNs.push_back(clampNs(Ns));
    tick();
  }
  const pcb::Heap &heap() const override { return Inner->heap(); }
  uint64_t liveBound() const override { return Inner->liveBound(); }

  /// Opens the first block at the start of the timed region.
  void begin(Clock::time_point Start) { BlockStart = Start; }
  /// Closes the last, partial block at the end of the timed region, so
  /// the blocks partition it.
  void end(Clock::time_point End) { closeBlock(End); }

  pcb::MutatorContext *Inner = nullptr;

private:
  void tick() {
    if (++Calls % BlockCalls == 0)
      closeBlock(Clock::now());
  }
  void closeBlock(Clock::time_point Now) {
    Out.BlockNs.push_back(clampNs(nanosBetween(BlockStart, Now)));
    BlockStart = Now;
  }

  CellRecord &Out;
  const bool Traced;
  uint64_t Calls = 0;
  Clock::time_point BlockStart;
};

/// The Program shim: routes the program's allocate / free calls through a
/// TimedContext and, in traced runs, times step (which encloses them) and
/// onObjectMoved.
class TimedProgram : public pcb::Program {
public:
  TimedProgram(pcb::Program &Inner, CellRecord &Out, bool Traced)
      : Ctx(Out, Traced), Inner(Inner), Out(Out), Traced(Traced) {}

  bool step(pcb::MutatorContext &Real) override {
    Ctx.Inner = &Real;
    if (!Traced)
      return Inner.step(Ctx);
    auto Start = Clock::now();
    bool More = Inner.step(Ctx);
    Out.Stats[StProgStepNs] += nanosSince(Start);
    return More;
  }
  bool onObjectMoved(pcb::ObjectId Id, pcb::Addr From,
                     pcb::Addr To) override {
    if (!Traced)
      return Inner.onObjectMoved(Id, From, To);
    auto Start = Clock::now();
    bool FreeIt = Inner.onObjectMoved(Id, From, To);
    Out.Stats[StOnMovedNs] += nanosSince(Start);
    return FreeIt;
  }
  std::string name() const override { return Inner.name(); }

  TimedContext Ctx;

private:
  pcb::Program &Inner;
  CellRecord &Out;
  const bool Traced;
};

/// Workload sizes: Full is the benchmark; Tiny is the self-test's.
enum class Size { Full, Tiny };

/// The named workloads' set-up: builds every cell. Returns false for an
/// unknown name.
bool buildWorkload(const std::string &Name, uint64_t Seed, Size S,
                   std::vector<std::unique_ptr<CellState>> &Cells);

/// A cell that aborts, for the self-test.
std::unique_ptr<CellState> plantedAbortCell();

/// A named workload and the fixed sizes of its runs. PassSeconds is the
/// host time one untraced pass over its cells takes, set-up round
/// included, at full size on the machine the benchmark was tuned on (a
/// 4-vCPU x86-64 KVM guest); it sizes the number of passes a run makes.
/// SetupsPerRound is the number of set-ups a round times, about a tenth
/// of a second's worth there. Neither depends on how fast a run goes, so
/// every build gets the same estimators.
struct WorkloadInfo {
  std::string Name;
  double PassSeconds;
  unsigned SetupsPerRound;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadInfo> &workloads();

} // namespace pcbbench

#endif // PCBBENCH_CELLS_H
