//===- bench/bench_fig2.cpp - Figure 2: lower bound vs n -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Regenerates Figure 2: the lower bound on the waste factor h as a
// function of the maximum object size n, with c = 100 and M = 256 n
// (the paper's "no object larger than half a percent of the heap" rule).
// n ranges over 1KB .. 1GB.
//
// Usage: bench_fig2 [c=100] [lognmin=10] [lognmax=30] [ratio=256] [csv=0]
//                   [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "bounds/BoundSweep.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/AsciiChart.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

int main(int argc, char **argv) try {
  OptionParser Opts(argc, argv);
  double C = Opts.getDouble("c", 100.0);
  unsigned LogNMin = parseLogWord(Opts, "lognmin", 10);
  unsigned LogNMax = parseLogWord(Opts, "lognmax", 30);
  uint64_t Ratio = Opts.getUInt("ratio", 256);

  std::cout << "# Figure 2: lower bound on the waste factor h as a"
            << " function of n (c=" << C << ", M=" << Ratio << "n)\n";

  ExperimentGrid Grid;
  Grid.addRangeAxis("log2n", LogNMin, LogNMax);
  std::vector<Fig2Point> Series =
      makeRunner(Opts).map<Fig2Point>(Grid, [&](const GridCell &Cell) {
        unsigned LogN = unsigned(Cell.num("log2n"));
        return sweepFig2(C, LogN, LogN, Ratio).front();
      });

  ResultSink Sink({"n", "log2(n)", "new_lower", "sigma", "prior_lower"});
  ChartSeries NewCurve{"Theorem 1 lower bound (this paper)", '#', {}};
  ChartSeries PriorCurve{"POPL 2011 lower bound", '.', {}};
  for (const Fig2Point &Pt : Series) {
    Sink.append(Row()
                    .addCell(formatWords(Pt.N))
                    .addCell(uint64_t(Pt.LogN))
                    .addCell(Pt.NewLower, 3)
                    .addCell(uint64_t(Pt.Sigma))
                    .addCell(Pt.PriorLower, 3));
    NewCurve.Y.push_back(Pt.NewLower);
    PriorCurve.Y.push_back(Pt.PriorLower);
  }
  if (!Sink.emit(Opts))
    return 1;

  AsciiChart::Options ChartOpts;
  ChartOpts.XLabel = "log2(n)";
  ChartOpts.YLabel = "waste factor h";
  AsciiChart Chart(double(LogNMin), double(LogNMax), ChartOpts);
  Chart.addSeries(NewCurve);
  Chart.addSeries(PriorCurve);
  std::cout << '\n';
  Chart.print(std::cout);
  return 0;
} catch (const std::exception &Ex) {
  std::cerr << "error: " << Ex.what() << "\n";
  return 1;
}
