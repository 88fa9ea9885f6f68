//===- adversary/ProgramFactory.cpp - Programs by name --------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/ProgramFactory.h"

#include "adversary/CohenPetrankProgram.h"
#include "adversary/PatternWorkloads.h"
#include "adversary/RobsonProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "bounds/CohenPetrankBounds.h"
#include "realloc/UpdateProgram.h"
#include "support/MathUtils.h"
#include "support/Table.h"

#include <algorithm>
#include <cmath>

using namespace pcb;

std::unique_ptr<Program> pcb::createProgram(const std::string &Name,
                                            uint64_t M, unsigned LogN,
                                            double C) {
  if (Name == "robson")
    return std::make_unique<RobsonProgram>(M, LogN);
  // "pf" is the paper's name for the adversarial program of Section 4.
  if (Name == "cohen-petrank" || Name == "pf")
    return std::make_unique<CohenPetrankProgram>(M, pow2(LogN), C);
  if (Name == "random-churn") {
    RandomChurnProgram::Options O;
    O.MaxLogSize = LogN;
    return std::make_unique<RandomChurnProgram>(M, O);
  }
  if (Name == "markov-phase") {
    MarkovPhaseProgram::Options O;
    O.MaxLogSize = LogN;
    return std::make_unique<MarkovPhaseProgram>(M, O);
  }
  if (Name == "stack-lifo") {
    StackProgram::Options O;
    O.MaxLogSize = LogN;
    return std::make_unique<StackProgram>(M, O);
  }
  if (Name == "queue-fifo") {
    QueueProgram::Options O;
    O.MaxLogSize = LogN;
    return std::make_unique<QueueProgram>(M, O);
  }
  if (Name == "sawtooth") {
    SawtoothProgram::Options O;
    O.MaxLogSize = LogN;
    return std::make_unique<SawtoothProgram>(M, O);
  }
  // The reallocation family's insert/delete adversaries (realloc/).
  for (UpdateProgram::Shape S :
       {UpdateProgram::Shape::FillDrain, UpdateProgram::Shape::Alternating,
        UpdateProgram::Shape::Comb, UpdateProgram::Shape::SizeProfile,
        UpdateProgram::Shape::Mix}) {
    if (Name == std::string("update-") + UpdateProgram::shapeName(S)) {
      UpdateProgram::Options O;
      O.MaxLogSize = LogN;
      O.S = S;
      return std::make_unique<UpdateProgram>(M, O);
    }
  }
  return nullptr;
}

/// Why a program cannot run at (M, 2^LogN, C), or empty when it can: the
/// largest object must fit in M, and the paper's adversaries have the
/// preconditions their constructors assert on.
static std::string programDomainError(const std::string &Name, uint64_t M,
                                      unsigned LogN, double C) {
  std::string Prefix = "program '" + Name + "' ";
  bool IsPF = Name == "cohen-petrank" || Name == "pf";
  if (IsPF && LogN < 4)
    return Prefix + "needs logn >= 4 for its two-stage construction (logn = " +
           std::to_string(LogN) + ")";
  if (LogN >= 64 || M < pow2(LogN))
    return Prefix + "needs M >= 2^logn (M = " + std::to_string(M) +
           ", logn = " + std::to_string(LogN) + ")";
  if (!IsPF)
    return "";
  // Admissible densities: 2^sigma <= 3c/4 and 2*sigma <= log2(n) - 2;
  // logn >= 4 already admits sigma = 1 on the second.
  if (cohenPetrankMaxSigma(C) < 1)
    return Prefix + "has no admissible density sigma >= 1 at c = " +
           formatDouble(C, 2) + " (needs 2^sigma <= 3c/4, i.e. c >= 8/3)";
  return "";
}

std::unique_ptr<Program> pcb::createProgramChecked(const std::string &Name,
                                                   uint64_t M, unsigned LogN,
                                                   double C,
                                                   std::string *Error) {
  std::vector<std::string> Names = allProgramNames();
  std::string Why;
  bool Known =
      Name == "pf" || std::find(Names.begin(), Names.end(), Name) != Names.end();
  if (!Known)
    Why = "unknown program '" + Name + "'; valid programs: " +
          programNameList();
  else
    Why = programDomainError(Name, M, LogN, C);
  if (!Why.empty()) {
    if (Error)
      *Error = Why;
    return nullptr;
  }
  return createProgram(Name, M, LogN, C);
}

std::string pcb::programNameList() {
  std::string List;
  for (const std::string &Name : allProgramNames()) {
    if (!List.empty())
      List += ", ";
    List += Name;
  }
  return List;
}

std::vector<std::string> pcb::allProgramNames() {
  std::vector<std::string> All = {"robson",       "cohen-petrank",
                                  "random-churn", "markov-phase",
                                  "stack-lifo",   "queue-fifo",
                                  "sawtooth"};
  for (const std::string &Name : updateProgramNames())
    All.push_back(Name);
  return All;
}

std::vector<std::string> pcb::adversarialProgramNames() {
  return {"robson", "cohen-petrank"};
}

std::vector<std::string> pcb::ordinaryProgramNames() {
  return {"random-churn", "markov-phase", "stack-lifo", "queue-fifo",
          "sawtooth"};
}

std::vector<std::string> pcb::updateProgramNames() {
  return {"update-fill-drain", "update-alternating", "update-comb",
          "update-size-profile", "update-mix"};
}
