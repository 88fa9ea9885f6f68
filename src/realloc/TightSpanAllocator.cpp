//===- realloc/TightSpanAllocator.cpp - Jin-style repacking --------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "realloc/TightSpanAllocator.h"

#include "obs/Profiler.h"

#include <cassert>

using namespace pcb;

Addr TightSpanAllocator::placeFor(uint64_t Size) {
  return heap().freeSpace().firstFit(Size);
}

void TightSpanAllocator::onPlaced(ObjectId Id) {
  const Object &O = heap().object(Id);
  Top = std::max(Top, O.Address + O.Size);
}

void TightSpanAllocator::onFreed(ObjectId, Addr, uint64_t) {
  if (InRebuild)
    return;
  maybeRebuild();
}

void TightSpanAllocator::maybeRebuild() {
  // Loop because a program that frees moved objects (PF) can re-open
  // dead space during a pass; a pass that commits no move — everything
  // already packed, or the ledger/gate denying the first move — breaks
  // the loop, and the ledger bounds the total work in between.
  while (true) {
    uint64_t Live = heap().stats().LiveWords;
    if (Live == 0) {
      // Nothing to repack; the span collapses for free.
      Top = 0;
      return;
    }
    assert(Top >= Live && "live words above the tracked span top");
    uint64_t Dead = Top - Live;
    // Epsilon = 1/2: repack only once dead space exceeds live/2, which
    // guarantees the pass (cost <= Live) is funded by >= Live/2 words
    // freed since the span was last tight.
    if (2 * Dead <= Live)
      return;
    if (rebuildPass() == 0)
      return;
  }
}

uint64_t TightSpanAllocator::rebuildPass() {
  ScopedTimer Timer(Profiler::SecRealloc);
  Profiler::bump(Profiler::CtrReallocPasses);
  InRebuild = true;
  ++NumRebuilds;
  uint64_t Moved = 0;
  bool Complete = true;
  // Walk live objects from the first hole upward, sliding each down to
  // the packed frontier (the same lazy walk as SlidingCompactor: the
  // heap allows overlapping downward moves, and re-fetching the next
  // live object by address tolerates frees from the move callback).
  Addr Target = heap().freeSpace().firstFit(1);
  for (ObjectId Id = heap().firstLiveAt(Target); Id != InvalidObjectId;) {
    const Object &O = heap().object(Id);
    Addr After = O.Address + 1;
    if (O.Address != Target) {
      assert(Target < O.Address && "repacking would move an object upward");
      if (!tryMoveObject(Id, Target)) {
        Complete = false;
        break;
      }
      ++Moved;
    }
    if (heap().isLive(Id))
      Target += O.Size;
    Id = heap().firstLiveAt(After);
  }
  // Only a complete pass proves every live word lies below the packed
  // frontier, so only then may the span tighten.
  if (Complete)
    Top = Target;
  InRebuild = false;
  return Moved;
}
