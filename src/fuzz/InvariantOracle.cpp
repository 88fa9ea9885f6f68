//===- fuzz/InvariantOracle.cpp - Per-step invariant checking ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "fuzz/InvariantOracle.h"

#include "driver/Auditors.h"

using namespace pcb;

std::string Violation::describe() const {
  return Policy + "/" + Check + " at step " + std::to_string(Step) + ": " +
         Detail;
}

InvariantOracle::InvariantOracle(const Heap &H, const MemoryManager &MM,
                                 const EventLog &Log)
    : InvariantOracle(H, MM, Log, Options()) {}

InvariantOracle::InvariantOracle(const Heap &H, const MemoryManager &MM,
                                 const EventLog &Log, Options O)
    : H(H), MM(MM), Log(Log), Opts(O) {}

Violation InvariantOracle::make(const std::string &Check, uint64_t Step,
                                const std::string &Detail) const {
  return Violation{Check, MM.name(), Step, Detail};
}

size_t InvariantOracle::checkCheap(uint64_t Step,
                                   std::vector<Violation> &Out) {
  size_t Before = Out.size();
  const HeapStats &S = H.stats();
  if (S.HighWaterMark < S.LiveWords)
    Out.push_back(make("footprint-below-live", Step,
                       "footprint " + std::to_string(S.HighWaterMark) +
                           " < live " + std::to_string(S.LiveWords)));
  if (S.HighWaterMark < LastHighWaterMark)
    Out.push_back(make("footprint-shrank", Step,
                       "high-water mark fell from " +
                           std::to_string(LastHighWaterMark) + " to " +
                           std::to_string(S.HighWaterMark)));
  LastHighWaterMark = S.HighWaterMark;
  if (!MM.ledger().holds())
    Out.push_back(make("budget-endpoint", Step,
                       "moved " + std::to_string(S.MovedWords) +
                           " words against a budget of " +
                           std::to_string(MM.ledger().budgetWords())));
  return Out.size() - Before;
}

size_t InvariantOracle::checkStep(uint64_t Step,
                                  std::vector<Violation> &Out) {
  size_t Added = checkCheap(Step, Out);
  if (Opts.DeepCheckEvery != 0 && Step % Opts.DeepCheckEvery == 0)
    Added += checkDeep(Step, Out);
  return Added;
}

size_t InvariantOracle::checkDeep(uint64_t Step,
                                  std::vector<Violation> &Out) {
  size_t Before = Out.size();
  checkCheap(Step, Out);

  std::string Why;
  if (!H.checkConsistency(&Why))
    Out.push_back(make("structural", Step, Why));

  const HeapStats &S = H.stats();
  AuditReport A = auditEvents(Log.events());
  if (!A.Consistent)
    Out.push_back(make("event-stream", Step,
                       "recorded events are internally inconsistent "
                       "(double free, overlap, or move of a dead object)"));
  else if (!A.matches(S)) {
    auto Diff = [](const char *Field, uint64_t Audited, uint64_t Stated) {
      return std::string(Field) + " audited=" + std::to_string(Audited) +
             " stats=" + std::to_string(Stated) + "; ";
    };
    std::string Detail;
    if (A.HighWaterMark != S.HighWaterMark)
      Detail += Diff("HighWaterMark", A.HighWaterMark, S.HighWaterMark);
    if (A.LiveWords != S.LiveWords)
      Detail += Diff("LiveWords", A.LiveWords, S.LiveWords);
    if (A.PeakLiveWords != S.PeakLiveWords)
      Detail += Diff("PeakLiveWords", A.PeakLiveWords, S.PeakLiveWords);
    if (A.TotalAllocatedWords != S.TotalAllocatedWords)
      Detail += Diff("TotalAllocatedWords", A.TotalAllocatedWords,
                     S.TotalAllocatedWords);
    if (A.MovedWords != S.MovedWords)
      Detail += Diff("MovedWords", A.MovedWords, S.MovedWords);
    if (A.NumAllocations != S.NumAllocations)
      Detail += Diff("NumAllocations", A.NumAllocations, S.NumAllocations);
    if (A.NumFrees != S.NumFrees)
      Detail += Diff("NumFrees", A.NumFrees, S.NumFrees);
    if (A.NumMoves != S.NumMoves)
      Detail += Diff("NumMoves", A.NumMoves, S.NumMoves);
    Out.push_back(make("audit-mismatch", Step, Detail));
  }

  if (!auditBudgetHistory(Log.events(), MM.ledger().quotaDenominator()))
    Out.push_back(make("budget-history", Step,
                       "a prefix of the execution moved more than "
                       "allocated/c words"));
  return Out.size() - Before;
}
