//===- mm/MemoryManager.cpp - Manager interface and move plumbing --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/MemoryManager.h"

#include <cassert>
#include <limits>

using namespace pcb;

MemoryManager::~MemoryManager() = default;

double MemoryManager::overheadBound() const {
  if (Ledger.isUnlimited())
    return std::numeric_limits<double>::infinity();
  // Each c-partial move of s words is funded by c*s words of fresh
  // allocation, so cumulative moves never exceed allocations / c.
  return 1.0 / Ledger.quotaDenominator();
}

ObjectId MemoryManager::allocate(uint64_t Size) {
  assert(Size != 0 && "allocating zero words");
  Addr Address = placeFor(Size);
  assert(TheHeap.isFree(Address, Size) &&
         "policy chose a non-free placement");
  ObjectId Id = TheHeap.place(Address, Size);
  onPlaced(Id);
  return Id;
}

void MemoryManager::free(ObjectId Id) {
  assert(TheHeap.isLive(Id) && "freeing a dead or unknown object");
  onFreeing(Id);
  const Object &O = TheHeap.object(Id);
  Addr From = O.Address;
  uint64_t Size = O.Size;
  TheHeap.free(Id);
  onFreed(Id, From, Size);
}

bool MemoryManager::tryMoveObject(ObjectId Id, Addr To) {
  assert(TheHeap.isLive(Id) && "moving a dead or unknown object");
  const Object &O = TheHeap.object(Id);
  if (Spend && !Spend())
    return false;
  if (!Ledger.canMove(O.Size))
    return false;
  Addr From = O.Address;
  // The policy's metadata must follow the object across the move; let the
  // subclass drop and re-add it around the heap-level move.
  onFreeing(Id);
  TheHeap.move(Id, To);
  Ledger.noteMove();
  onPlaced(Id);
  if (OnMove && OnMove(Id, From, To)) {
    // The program chose to de-allocate the moved object immediately.
    free(Id);
  }
  return true;
}
