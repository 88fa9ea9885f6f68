//===- realloc/ReallocManager.h - Reallocation-family base ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Base class for the reallocation problem family (DESIGN.md §17). A
/// reallocation manager plays the sibling game to c-partial compaction:
/// it may move objects whenever it likes, but its score is the overhead
/// ratio — cumulative words moved per word allocated — which its scheme's
/// bound must dominate on every prefix. That is the c-partial constraint
/// with c = 1/bound, so the base class only maps the bound to c: every
/// move goes through the same tryMoveObject gate and ledger as the
/// compaction family's, and an algorithm whose amortization argument is
/// wrong has its moves denied rather than silently exceeding the bound.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_REALLOC_REALLOCMANAGER_H
#define PCBOUND_REALLOC_REALLOCMANAGER_H

#include "mm/MemoryManager.h"

#include <limits>

namespace pcb {

class ReallocManager : public MemoryManager {
public:
  /// \p OverheadBound is the scheme's bound; 0 (never move) gives
  /// c = +infinity, a budget of 0 words.
  ReallocManager(Heap &H, double OverheadBound)
      : MemoryManager(H, OverheadBound > 0.0
                             ? 1.0 / OverheadBound
                             : std::numeric_limits<double>::infinity()) {}

  /// Marks the family: reports print its overhead-ratio score line.
  const CompactionLedger *reallocationLedger() const override {
    return &ledger();
  }
};

} // namespace pcb

#endif // PCBOUND_REALLOC_REALLOCMANAGER_H
