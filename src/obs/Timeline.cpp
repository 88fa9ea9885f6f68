//===- obs/Timeline.cpp - Time series of heap state -----------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "obs/Timeline.h"

#include "heap/Metrics.h"
#include "mm/CompactionLedger.h"
#include "runner/ResultSink.h"
#include "support/AsciiChart.h"

#include <fstream>
#include <ostream>

using namespace pcb;

TimelinePoint pcb::pointFrom(uint64_t Step, const Heap &H,
                             const CompactionLedger &L) {
  FragmentationMetrics FM = measureFragmentation(H);
  TimelinePoint P;
  P.Step = Step;
  P.FootprintWords = FM.FootprintWords;
  P.LiveWords = FM.LiveWords;
  P.FreeWords = FM.FreeWords;
  P.FreeBlocks = FM.FreeBlocks;
  P.LargestFreeBlock = FM.LargestFreeBlock;
  P.Utilization = FM.Utilization;
  P.ExternalFragmentation = FM.ExternalFragmentation;
  P.AllocatedWords = H.stats().TotalAllocatedWords;
  P.MovedWords = H.stats().MovedWords;
  P.BudgetWords = L.isUnlimited() ? 0 : L.budgetWords();
  return P;
}

void Timeline::thinHalf() {
  size_t Kept = 0;
  for (size_t I = 0; I < Points.size(); I += 2)
    Points[Kept++] = Points[I];
  Points.resize(Kept);
}

std::vector<std::string> Timeline::header() {
  return {"step",
          "footprint_words",
          "live_words",
          "free_words",
          "free_blocks",
          "largest_free_block",
          "utilization",
          "external_fragmentation",
          "allocated_words",
          "moved_words",
          "budget_words"};
}

void Timeline::fillSink(ResultSink &Sink) const {
  for (const TimelinePoint &P : Points) {
    Row R;
    R.addCell(P.Step)
        .addCell(P.FootprintWords)
        .addCell(P.LiveWords)
        .addCell(P.FreeWords)
        .addCell(P.FreeBlocks)
        .addCell(P.LargestFreeBlock)
        .addCell(P.Utilization, 4)
        .addCell(P.ExternalFragmentation, 4)
        .addCell(P.AllocatedWords)
        .addCell(P.MovedWords)
        .addCell(P.BudgetWords);
    Sink.append(std::move(R));
  }
}

void Timeline::printCsv(std::ostream &OS) const {
  ResultSink Sink(header());
  fillSink(Sink);
  Sink.toTable().printCsv(OS);
}

void Timeline::printJson(std::ostream &OS) const {
  ResultSink Sink(header());
  fillSink(Sink);
  Sink.printJson(OS);
}

bool Timeline::writeFile(const std::string &Path, std::string *Error) const {
  bool Json = Path.size() >= 5 &&
              Path.compare(Path.size() - 5, 5, ".json") == 0;
  std::ofstream OS(Path);
  if (OS) {
    if (Json)
      printJson(OS);
    else
      printCsv(OS);
    OS.flush();
  }
  // One check covers open failure and mid-run write failure: any failed
  // state means points were dropped.
  if (!OS) {
    if (Error)
      *Error = "cannot write '" + Path + "'";
    return false;
  }
  return true;
}

void Timeline::printCharts(std::ostream &OS, unsigned Width,
                           unsigned Height) const {
  if (Points.empty()) {
    OS << "(empty timeline)\n";
    return;
  }
  double X0 = double(Points.front().Step);
  double X1 = double(Points.back().Step);
  if (X0 == X1)
    X1 = X0 + 1.0;

  ChartSeries Footprint{"footprint (words)", '#', {}};
  ChartSeries Live{"live (words)", '*', {}};
  ChartSeries Util{"utilization", '*', {}};
  ChartSeries Frag{"external fragmentation", '%', {}};
  for (const TimelinePoint &P : Points) {
    Footprint.Y.push_back(double(P.FootprintWords));
    Live.Y.push_back(double(P.LiveWords));
    Util.Y.push_back(P.Utilization);
    Frag.Y.push_back(P.ExternalFragmentation);
  }

  {
    AsciiChart::Options Opts;
    Opts.Width = Width;
    Opts.Height = Height;
    Opts.XLabel = "step";
    Opts.YLabel = "heap words over time";
    AsciiChart Chart(X0, X1, Opts);
    Chart.addSeries(std::move(Footprint));
    Chart.addSeries(std::move(Live));
    Chart.print(OS);
  }
  {
    AsciiChart::Options Opts;
    Opts.Width = Width;
    Opts.Height = Height;
    Opts.YMin = 0.0;
    Opts.YMax = 1.0;
    Opts.XLabel = "step";
    Opts.YLabel = "fragmentation over time";
    AsciiChart Chart(X0, X1, Opts);
    Chart.addSeries(std::move(Util));
    Chart.addSeries(std::move(Frag));
    Chart.print(OS);
  }
}

std::string pcb::timelineCellPath(const std::string &Prefix,
                                  const std::string &Tag) {
  for (const char *Ext : {".csv", ".json"}) {
    size_t Len = std::string(Ext).size();
    if (Prefix.size() >= Len &&
        Prefix.compare(Prefix.size() - Len, Len, Ext) == 0)
      return Prefix.substr(0, Prefix.size() - Len) + "-" + Tag + Ext;
  }
  return Prefix + "-" + Tag + ".csv";
}
