//===- runner/Runner.h - Parallel experiment execution ----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution half of the experiment runner: a fixed-size thread pool
/// that pulls grid cells off a shared work queue and runs each on a
/// private Heap/Manager/Program stack. The determinism contract:
///
///   * results are keyed by cell index and assembled in cell order, and
///   * anything stochastic inside a cell must be seeded from
///     GridCell::seed(), which depends only on (base seed, cell index),
///
/// so the emitted table is byte-identical for --threads=1 and
/// --threads=8. With Threads == 1 (or a 1-cell grid) no thread is
/// spawned at all — the serial fallback runs cells inline. Progress
/// (cells done / total, elapsed, ETA) goes to stderr only, keeping
/// stdout reserved for results.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_RUNNER_RUNNER_H
#define PCBOUND_RUNNER_RUNNER_H

#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"

#include <functional>
#include <string>
#include <vector>

namespace pcb {

class OptionParser;
class Profiler;

struct RunnerOptions {
  /// Worker count; 0 means Runner::defaultThreads() (hardware threads).
  unsigned Threads = 0;
  /// Progress reporting to stderr: 0 off, 1 on, -1 auto (on only when
  /// stderr is a terminal, so CI logs and redirections stay clean).
  int Progress = -1;
  /// When set, every cell runs under a profiler (per-worker instances on
  /// the pool) and the section/counter totals are merged here after the
  /// sweep. Merging is commutative, so the totals are deterministic even
  /// though workers finish in any order. Null leaves profiling to
  /// whatever ProfilerScope the calling thread has installed (which the
  /// pool's workers do NOT inherit).
  Profiler *Prof = nullptr;
};

class Runner {
public:
  explicit Runner(RunnerOptions Opts = {});

  /// The machine's hardware concurrency (at least 1).
  static unsigned defaultThreads();

  /// The resolved worker count this runner will use.
  unsigned threads() const { return NumThreads; }

  /// Runs \p Fn(I) for every I in [0, NumCells), distributing cells over
  /// the pool (or inline when threads() == 1). Blocks until all cells
  /// are done; rethrows the first cell exception after draining.
  void forEachCell(uint64_t NumCells,
                   const std::function<void(uint64_t)> &Fn) const;

  /// Parallel map: runs \p Fn on every cell of \p G and returns the
  /// results in cell order. For benches that post-process typed results
  /// (charts, summary statistics) before building their table.
  template <typename T>
  std::vector<T> map(const ExperimentGrid &G,
                     const std::function<T(const GridCell &)> &Fn) const {
    std::vector<T> Out(size_t(G.numCells()));
    forEachCell(G.numCells(),
                [&](uint64_t I) { Out[size_t(I)] = Fn(G.cell(I)); });
    return Out;
  }

  /// Runs \p Fn on every cell and stores its rows in \p Sink under the
  /// cell's index. Cells may return zero rows (out-of-domain points).
  void run(const ExperimentGrid &G,
           const std::function<std::vector<Row>(const GridCell &)> &Fn,
           ResultSink &Sink) const;

  /// Single-row convenience wrapper around run().
  void runRows(const ExperimentGrid &G,
               const std::function<Row(const GridCell &)> &Fn,
               ResultSink &Sink) const;

  /// Wall-clock seconds each cell of the last forEachCell() took, keyed
  /// by cell index. Timing is observability only — it never feeds into
  /// results, so the determinism contract is unaffected.
  const std::vector<double> &cellSeconds() const { return CellSeconds; }

  /// Wall-clock seconds the last forEachCell() took end to end.
  double wallSeconds() const { return WallSeconds; }

private:
  bool progressEnabled() const;

  unsigned NumThreads;
  int Progress;
  Profiler *Prof;
  /// Per-cell and total wall-clock of the last sweep (observability;
  /// distinct cells write distinct slots, so no synchronization needed).
  mutable std::vector<double> CellSeconds;
  mutable double WallSeconds = 0.0;
};

/// Builds a Runner from the sweep commands' common options: `threads=N`
/// (0 or absent = all hardware threads) and `progress=0/1` (default:
/// auto, i.e. report to stderr only when it is a terminal).
Runner makeRunner(const OptionParser &Opts);

/// Parses the comma-separated numbers of option \p Name ("10,25,50"), or
/// \p Default when it is absent; empty items are skipped. Throws
/// std::invalid_argument naming the item and the option on a malformed
/// number.
std::vector<double> parseNumberList(const OptionParser &Opts,
                                    const std::string &Name,
                                    const std::string &Default);

/// Parses the comma-separated names of option \p Name ("a,b,c"), or
/// \p Default when it is absent; empty items are skipped.
std::vector<std::string> parseNameList(const OptionParser &Opts,
                                       const std::string &Name,
                                       const std::string &Default);

/// Reads the log2 size word \p Name (logm=, logn=, maxlog=, ...), or
/// \p Default when it is absent. Throws std::invalid_argument naming the
/// word unless 2^value words fit the 2^60-word address space.
unsigned parseLogWord(const OptionParser &Opts, const std::string &Name,
                      unsigned Default);

} // namespace pcb

#endif // PCBOUND_RUNNER_RUNNER_H
