//===- mm/CompactionLedger.h - The c-partial budget -------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's compaction model (Section 2.1): a memory manager is
/// c-partial if, at every point of the execution, the total number of
/// words it has moved is at most s/c where s is the total number of words
/// allocated so far. This ledger evaluates that constraint against the
/// heap's running statistics; the MemoryManager base class refuses moves
/// that would breach it, and the execution driver re-validates it as an
/// invariant after every step.
///
/// It is also the reallocation family's budget (DESIGN.md §17): Jin and
/// Bender et al. bound moved / allocated words by beta on every prefix,
/// which for integer word counts is the same constraint with c = 1/beta.
/// A never-moving scheme has c = +infinity, whose budget is 0 words.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_COMPACTIONLEDGER_H
#define PCBOUND_MM_COMPACTIONLEDGER_H

#include "heap/Heap.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace pcb {

/// Evaluates the c-partial compaction constraint against a heap.
class CompactionLedger {
public:
  /// \p C is the compaction quota denominator. C <= 0 means unlimited
  /// compaction (used by the full-compaction baseline, which is
  /// deliberately *not* a c-partial manager).
  CompactionLedger(const Heap &H, double C) : H(H), C(C) {}

  /// True when compaction is not budget-limited.
  bool isUnlimited() const { return C <= 0.0; }

  double quotaDenominator() const { return C; }

  /// Words of compaction allowed so far: floor(total allocated / c).
  uint64_t budgetWords() const {
    if (isUnlimited())
      return UINT64_MAX;
    return uint64_t(std::floor(double(H.stats().TotalAllocatedWords) / C));
  }

  /// Words of budget not yet spent.
  uint64_t remainingWords() const {
    uint64_t Budget = budgetWords();
    uint64_t Spent = H.stats().MovedWords;
    return Budget > Spent ? Budget - Spent : 0;
  }

  /// True if moving \p Words more would still respect the budget.
  bool canMove(uint64_t Words) const {
    return isUnlimited() || Words <= remainingWords();
  }

  /// Invariant check: the moves performed so far respect the budget.
  bool holds() const {
    return isUnlimited() || H.stats().MovedWords <= budgetWords();
  }

  /// Folds the prefix ending at a just-committed move into the worst
  /// moved / allocated ratio. Only moves raise the ratio, so calling this
  /// once per committed move covers every prefix.
  void noteMove() {
    const HeapStats &S = H.stats();
    if (S.TotalAllocatedWords != 0)
      MaxPrefix = std::max(MaxPrefix, double(S.MovedWords) /
                                          double(S.TotalAllocatedWords));
  }

  /// The worst moved / allocated ratio over every prefix so far (sticky):
  /// the quantity the reallocation papers bound.
  double maxPrefixRatio() const { return MaxPrefix; }

private:
  const Heap &H;
  double C;
  double MaxPrefix = 0.0;
};

} // namespace pcb

#endif // PCBOUND_MM_COMPACTIONLEDGER_H
