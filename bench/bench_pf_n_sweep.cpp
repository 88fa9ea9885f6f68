//===- bench/bench_pf_n_sweep.cpp - Figure 2's simulated counterpart -----===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Figure 2 plots the closed-form lower bound against the maximum object
// size n. This bench measures the same sweep: at fixed c and fixed
// M = ratio * n (the paper's proportions), PF runs against the best
// c-partial managers and the measured waste factor is compared with the
// closed form evaluated at the simulated scale. Theorem 1 predicts
// measured >= theory in every cell, with both growing in n.
//
// Usage: bench_pf_n_sweep [c=50] [lognmin=6] [lognmax=10] [ratio=64]
//                         [policy=evacuating] [csv=0] [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "bounds/CohenPetrankBounds.h"
#include "driver/Execution.h"
#include "mm/ManagerFactory.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/AsciiChart.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

namespace {

/// One measured point of the sweep, kept numeric for the ASCII chart.
struct SweepPoint {
  unsigned LogN = 0;
  uint64_t M = 0;
  uint64_t HeapSize = 0;
  double MeasuredWaste = 0.0;
  double TheoryH = 0.0;
  uint64_t Sigma = 0;
};

} // namespace

int main(int argc, char **argv) try {
  OptionParser Opts(argc, argv);
  double C = Opts.getDouble("c", 50.0);
  unsigned LogNMin = parseLogWord(Opts, "lognmin", 6);
  unsigned LogNMax = parseLogWord(Opts, "lognmax", 10);
  uint64_t Ratio = Opts.getUInt("ratio", 64);
  std::string Policy = Opts.getString("policy", "evacuating");

  {
    // Validate the policy name once, before the sweep fans out.
    Heap Probe;
    if (!createManager(Policy, Probe, C)) {
      std::cerr << "error: unknown policy '" << Policy << "'\n";
      return 1;
    }
  }

  std::cout << "# Figure 2, simulated: PF vs " << Policy
            << " while n grows (c=" << C << ", M=" << Ratio << "n)\n"
            << "# Theorem 1: measured >= theory at every n; both grow"
            << " with n.\n";

  ExperimentGrid Grid;
  Grid.addRangeAxis("log2n", LogNMin, LogNMax);
  std::vector<SweepPoint> Series =
      makeRunner(Opts).map<SweepPoint>(Grid, [&](const GridCell &Cell) {
        unsigned LogN = unsigned(Cell.num("log2n"));
        uint64_t N = pow2(LogN);
        uint64_t M = Ratio * N;
        Heap H;
        auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
        CohenPetrankProgram PF(M, N, C);
        Execution E(*MM, PF, M);
        ExecutionResult R = E.run();
        return SweepPoint{LogN,
                          M,
                          R.HeapSize,
                          R.wasteFactor(M),
                          PF.targetWasteFactor(),
                          uint64_t(PF.sigma())};
      });

  ResultSink Sink({"log2(n)", "M_words", "measured_HS", "measured_waste",
                   "theory_h", "sigma"});
  ChartSeries Measured{"measured waste (PF vs " + Policy + ")", '#', {}};
  ChartSeries Theory{"Theorem 1 h at simulated scale", '.', {}};
  for (const SweepPoint &Pt : Series) {
    Sink.append(Row()
                    .addCell(uint64_t(Pt.LogN))
                    .addCell(Pt.M)
                    .addCell(Pt.HeapSize)
                    .addCell(Pt.MeasuredWaste, 3)
                    .addCell(Pt.TheoryH, 3)
                    .addCell(Pt.Sigma));
    Measured.Y.push_back(Pt.MeasuredWaste);
    Theory.Y.push_back(Pt.TheoryH);
  }
  if (!Sink.emit(Opts))
    return 1;

  AsciiChart::Options ChartOpts;
  ChartOpts.XLabel = "log2(n)";
  ChartOpts.YLabel = "waste factor";
  AsciiChart Chart(double(LogNMin), double(LogNMax), ChartOpts);
  Chart.addSeries(Measured);
  Chart.addSeries(Theory);
  std::cout << '\n';
  Chart.print(std::cout);
  return 0;
} catch (const std::exception &Ex) {
  std::cerr << "error: " << Ex.what() << "\n";
  return 1;
}
