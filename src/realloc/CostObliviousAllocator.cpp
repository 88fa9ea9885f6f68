//===- realloc/CostObliviousAllocator.cpp - Bucketed backfill ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "realloc/CostObliviousAllocator.h"

#include "obs/Profiler.h"

#include <cassert>

using namespace pcb;

Addr CostObliviousAllocator::placeFor(uint64_t Size) {
  return heap().freeSpace().firstFit(Size);
}

void CostObliviousAllocator::onPlaced(ObjectId Id) {
  const Object &O = heap().object(Id);
  Classes[O.Size][O.Address] = Id;
}

void CostObliviousAllocator::onFreeing(ObjectId Id) {
  const Object &O = heap().object(Id);
  auto It = Classes.find(O.Size);
  assert(It != Classes.end() && "freeing an object missing from its class");
  It->second.erase(O.Address);
  if (It->second.empty())
    Classes.erase(It);
}

void CostObliviousAllocator::onFreed(ObjectId, Addr From, uint64_t Size) {
  Holes.emplace_back(From, Size);
  // A free from inside a backfill (the program's reaction to the move)
  // only queues its hole: the outermost frame drains the queue and owns
  // the one mm.realloc timer.
  if (Draining)
    return;
  Draining = true;
  ScopedTimer Timer(Profiler::SecRealloc);
  while (!Holes.empty()) {
    auto [Hole, HoleSize] = Holes.back();
    Holes.pop_back();
    backfill(Hole, HoleSize);
  }
  Draining = false;
}

void CostObliviousAllocator::backfill(Addr From, uint64_t Size) {
  auto It = Classes.find(Size);
  if (It == Classes.end())
    return;
  // The highest-addressed class-mate strictly above the hole slides
  // down into it: addresses only ever decrease, so a program that frees
  // every moved object (PF) drives a cascade that removes one object
  // per link and terminates.
  auto Last = std::prev(It->second.end());
  if (Last->first <= From)
    return;
  Profiler::bump(Profiler::CtrReallocPasses);
  // Perfect fit and no overlap: the mover has the hole's exact size and
  // a strictly higher address, so its range starts at or past From+Size.
  if (tryMoveObject(Last->second, From))
    ++NumBackfills;
}
