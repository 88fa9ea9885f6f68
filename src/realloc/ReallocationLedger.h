//===- realloc/ReallocationLedger.h - The old ledger name -------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reallocation family is budgeted by the one c-partial ledger, with
/// c = 1/bound (DESIGN.md §17). This name is kept only because the
/// benchmark harness under perfbench/ still spells it; new code uses
/// CompactionLedger.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_REALLOC_REALLOCATIONLEDGER_H
#define PCBOUND_REALLOC_REALLOCATIONLEDGER_H

#include "mm/CompactionLedger.h"

namespace pcb {

using ReallocationLedger = CompactionLedger;

} // namespace pcb

#endif // PCBOUND_REALLOC_REALLOCATIONLEDGER_H
