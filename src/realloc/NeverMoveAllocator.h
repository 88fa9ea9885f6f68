//===- realloc/NeverMoveAllocator.h - Zero-overhead baseline ----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reallocation family's lower envelope: first-fit placement and no
/// moves, ever. Its overhead ratio is identically zero — the price is
/// footprint, which fragments freely. Benches plot the other schemes'
/// overhead curves against this floor and their footprints against its
/// ceiling.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_REALLOC_NEVERMOVEALLOCATOR_H
#define PCBOUND_REALLOC_NEVERMOVEALLOCATOR_H

#include "realloc/ReallocManager.h"

namespace pcb {

class NeverMoveAllocator : public ReallocManager {
public:
  explicit NeverMoveAllocator(Heap &H)
      : ReallocManager(H, /*OverheadBound=*/0.0) {}

  std::string name() const override { return "realloc-never"; }

protected:
  Addr placeFor(uint64_t Size) override {
    return heap().freeSpace().firstFit(Size);
  }
};

} // namespace pcb

#endif // PCBOUND_REALLOC_NEVERMOVEALLOCATOR_H
