//===- testsupport/ReferenceHeap.h - Oracle heap model ----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full-heap oracle for the differential fuzzer and the substrate
/// tests: the pre-bitboard Heap's object table and footprint accounting,
/// with its free space kept in the node-based ReferenceFreeSpaceIndex
/// (the same oracle index_equiv_test checks the live FreeSpaceIndex
/// against), so each substrate layer has exactly one reference model.
/// It validates and records what it is told, exactly like the live Heap:
/// memory managers decide *where* to place or move objects.
///
/// Footprint semantics follow the paper: the heap is the smallest
/// consecutive address prefix the manager ever touches, so the heap size
/// HS(A, P) is the historical maximum of (highest used address + 1). Once
/// a word has been used it counts forever (Section 4: "the chunk that it
/// did occupy will remain part of the heap forever").
///
/// \par Thread compatibility
/// ReferenceHeap is thread-compatible: it has no global or static mutable state,
/// so distinct instances may be used concurrently from distinct threads
/// with no synchronization (the experiment runner in src/runner/ gives
/// every grid cell its own ReferenceHeap). A single instance must not be shared
/// across threads without external locking.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TESTSUPPORT_REFERENCEHEAP_H
#define PCBOUND_TESTSUPPORT_REFERENCEHEAP_H

#include "heap/Heap.h" // for HeapStats
#include "heap/HeapEvent.h"
#include "heap/HeapTypes.h"
#include "testsupport/ReferenceFreeSpaceIndex.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pcb {

/// The simulated heap: object table + free-space index + statistics.
class ReferenceHeap {
public:
  ReferenceHeap() = default;
  ReferenceHeap(const ReferenceHeap &) = delete;
  ReferenceHeap &operator=(const ReferenceHeap &) = delete;

  /// Places a new object of \p Size words at \p Address. The target range
  /// must be free (asserted). Returns the new object's id.
  ObjectId place(Addr Address, uint64_t Size);

  /// Frees a live object.
  void free(ObjectId Id);

  /// Moves a live object to \p NewAddress (target must be free and must
  /// not overlap the object's current placement). Counts toward
  /// MovedWords. The caller (memory manager) is responsible for having
  /// charged its compaction budget.
  void move(ObjectId Id, Addr NewAddress);

  /// The object with id \p Id (live or freed).
  const Object &object(ObjectId Id) const {
    assert(Id < Objects.size() && "object id out of range");
    return Objects[Id];
  }

  /// True if \p Id denotes a live object.
  bool isLive(ObjectId Id) const {
    return Id < Objects.size() && Objects[Id].isLive();
  }

  /// Number of object slots ever created (ids are dense in [0, size)).
  size_t numObjects() const { return Objects.size(); }

  /// Placement queries over the free space.
  const ReferenceFreeSpaceIndex &freeSpace() const { return Free; }

  /// Live words occupying [Start, Start + Size).
  uint64_t usedWordsIn(Addr Start, uint64_t Size) const;

  /// True if [Start, Start + Size) contains no live object words.
  bool isFree(Addr Start, uint64_t Size) const {
    return Free.isFree(Start, Size);
  }

  const HeapStats &stats() const { return Stats; }

  /// Installs an observer invoked after every place/free/move. Pass an
  /// empty function to detach. The observer must not mutate the heap.
  void setEventCallback(std::function<void(const HeapEvent &)> Callback) {
    OnEvent = std::move(Callback);
  }

  /// Full structural self-check: live objects are disjoint, the free
  /// index is exactly their complement, the live-by-address index agrees,
  /// and the statistics match a recount. O(objects + free blocks); meant
  /// for tests and the fuzzing oracle. When \p Why is non-null and the
  /// check fails, it receives a one-line diagnosis of the first
  /// inconsistency found.
  bool checkConsistency(std::string *Why = nullptr) const;

  /// Ids of all live objects, in address order. O(live objects).
  std::vector<ObjectId> liveObjects() const;

  /// Occupancy bitboard of the first \p Count (<= 64) words: bit i is set
  /// iff address i is covered by a live object. Canonicalization hook for
  /// the exact game solver (src/exact/), whose states are exactly such
  /// boards — witness replays cross-check the real heap against the
  /// solver's layout after every event. O(live objects).
  uint64_t occupancyMask(unsigned Count) const;

  /// Companion bitboard: bit i is set iff a live object starts at
  /// address i. Together with occupancyMask this determines the heap
  /// prefix's layout up to object identity. O(live objects).
  uint64_t objectStartMask(unsigned Count) const;

  /// Ids of live objects intersecting [Start, Start + Size), in address
  /// order. O(log live + matches).
  std::vector<ObjectId> liveObjectsIn(Addr Start, uint64_t Size) const;

  /// Id of the lowest-addressed live object starting at or above \p A, or
  /// InvalidObjectId when none exists. O(log live); lets compactors walk
  /// the heap in address order without snapshotting the whole live set.
  ObjectId firstLiveAt(Addr A) const {
    auto It = LiveByAddr.lower_bound(A);
    return It == LiveByAddr.end() ? InvalidObjectId : It->second;
  }

private:
  std::vector<Object> Objects;
  ReferenceFreeSpaceIndex Free;
  /// Live objects ordered by current address, for range queries.
  std::map<Addr, ObjectId> LiveByAddr;
  HeapStats Stats;
  std::function<void(const HeapEvent &)> OnEvent;
};

} // namespace pcb

#endif // PCBOUND_TESTSUPPORT_REFERENCEHEAP_H
