//===- bench/bench_manager_tuning.cpp - Evacuation aggressiveness --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The manager-side ablation the theory predicts: PF keeps every chunk's
// density above 2^-sigma > 1/c precisely so that evacuating it costs
// more budget than the allocation recharges. A manager that evacuates
// chunks denser than 1/c therefore burns budget for little footprint
// against the adversary — while against ordinary churn, aggressive
// evacuation is pure win. This bench sweeps EvacuatingCompactor's
// density threshold and ChunkedManager's garbage-share threshold against
// both kinds of workload and prints where the budget went. Note the
// knobs point in opposite directions: a HIGH density threshold is
// aggressive (denser chunks qualify for evacuation), a HIGH garbage
// threshold is conservative (a chunk must rot further before its
// trigger fires). Expected shape: against PF the footprint barely
// responds to either knob (and the budget empties), against churn it
// improves with aggressiveness at low move cost.
//
// Usage: bench_manager_tuning [logm=15] [logn=8] [c=50]
//        [thresholds=0.05,0.1,0.25,0.5,0.9] [csv=0] [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "driver/Execution.h"
#include "mm/ChunkedManager.h"
#include "mm/EvacuatingCompactor.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/MathUtils.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>
#include <memory>

using namespace pcb;

int main(int argc, char **argv) try {
  OptionParser Opts(argc, argv);
  unsigned LogM = parseLogWord(Opts, "logm", 15);
  unsigned LogN = parseLogWord(Opts, "logn", 8);
  double C = Opts.getDouble("c", 50.0);
  std::vector<double> Thresholds =
      parseNumberList(Opts, "thresholds", "0.05,0.1,0.25,0.5,0.9");
  uint64_t M = pow2(LogM);
  uint64_t N = pow2(LogN);

  std::cout << "# Manager tuning: evacuation density threshold vs PF and"
            << " vs churn (M=" << formatWords(M) << ", n=" << formatWords(N)
            << ", c=" << C << ")\n"
            << "# The adversary's density 2^-sigma > 1/c makes aggressive"
            << " evacuation a budget sink against PF.\n";

  ExperimentGrid Grid;
  Grid.addAxis("manager",
               std::vector<std::string>{"evacuating", "chunked"});
  Grid.addAxis("threshold", Thresholds);
  Grid.addAxis("workload",
               std::vector<std::string>{"cohen-petrank", "random-churn"});

  ResultSink Sink({"manager", "threshold", "workload", "measured_waste",
                   "moved_words", "evacuations", "budget_used_%"});
  makeRunner(Opts).runRows(
      Grid,
      [&](const GridCell &Cell) {
        const std::string &Manager = Cell.str("manager");
        double Threshold = Cell.num("threshold");
        const std::string &Workload = Cell.str("workload");
        Heap H;
        std::unique_ptr<MemoryManager> MM;
        if (Manager == "evacuating") {
          EvacuatingCompactor::Options MOpts;
          MOpts.DensityThreshold = Threshold;
          MM = std::make_unique<EvacuatingCompactor>(H, C, MOpts);
        } else {
          ChunkedManager::Options MOpts;
          MOpts.GarbageThreshold = Threshold;
          MM = std::make_unique<ChunkedManager>(H, C, MOpts);
        }
        std::unique_ptr<Program> Prog;
        if (Workload == "cohen-petrank") {
          Prog = std::make_unique<CohenPetrankProgram>(M, N, C);
        } else {
          RandomChurnProgram::Options POpts;
          POpts.Steps = 48;
          POpts.MaxLogSize = LogN;
          Prog = std::make_unique<RandomChurnProgram>(M, POpts);
        }
        Execution E(*MM, *Prog, M);
        ExecutionResult R = E.run();
        uint64_t Evacs =
            Manager == "evacuating"
                ? static_cast<EvacuatingCompactor &>(*MM).numEvacuations()
                : static_cast<ChunkedManager &>(*MM).numChunkEvacuations();
        double BudgetPct = R.TotalAllocatedWords == 0
                               ? 0.0
                               : 100.0 * double(R.MovedWords) * C /
                                     double(R.TotalAllocatedWords);
        return Row()
            .addCell(Manager)
            .addCell(Threshold, 2)
            .addCell(Workload)
            .addCell(R.wasteFactor(M), 3)
            .addCell(R.MovedWords)
            .addCell(Evacs)
            .addCell(BudgetPct, 1);
      },
      Sink);
  return Sink.emit(Opts) ? 0 : 1;
} catch (const std::exception &Ex) {
  std::cerr << "error: " << Ex.what() << "\n";
  return 1;
}
