//===- heap/Heap.h - The simulated word-addressed heap ----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for heap state: the object table, the free
/// space, and the footprint accounting. Memory managers are policies on
/// top of this model; they decide *where* to place or move objects, the
/// Heap validates and records it.
///
/// Address-ordered lookups run on a packed object-start bitboard (bit i
/// set iff a live object starts at address i) paired with a flat
/// address -> id table, replacing the former std::map over live objects.
/// Occupancy itself is not duplicated: the FreeSpaceIndex's occupancy
/// board is the one copy, and Heap's mask/bitboard queries read it
/// directly, so the object table and the free space cannot disagree about
/// which words are used. Starts beyond the dense board's ceiling (a cold
/// path for address-space-boundary placements) fall back to a small
/// sorted map.
///
/// Footprint semantics follow the paper: the heap is the smallest
/// consecutive address prefix the manager ever touches, so the heap size
/// HS(A, P) is the historical maximum of (highest used address + 1). Once
/// a word has been used it counts forever (Section 4: "the chunk that it
/// did occupy will remain part of the heap forever").
///
/// \par Thread compatibility
/// Heap is thread-compatible: it has no global or static mutable state,
/// so distinct instances may be used concurrently from distinct threads
/// with no synchronization (the experiment runner in src/runner/ gives
/// every grid cell its own Heap). A single instance must not be shared
/// across threads without external locking.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_HEAP_H
#define PCBOUND_HEAP_HEAP_H

#include "heap/FreeSpaceIndex.h"
#include "heap/HeapEvent.h"
#include "heap/HeapTypes.h"
#include "heap/PackedBitmap.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pcb {

/// Aggregate statistics the heap maintains as the execution proceeds.
struct HeapStats {
  /// Historical maximum of (highest used address + 1) — HS(A, P).
  uint64_t HighWaterMark = 0;
  /// Total words ever allocated (the paper's "s", which funds the
  /// compaction budget s/c).
  uint64_t TotalAllocatedWords = 0;
  /// Total words moved by compaction so far (the paper's "q").
  uint64_t MovedWords = 0;
  /// Currently live words.
  uint64_t LiveWords = 0;
  /// Maximum of LiveWords over time.
  uint64_t PeakLiveWords = 0;
  /// Counts of events.
  uint64_t NumAllocations = 0;
  uint64_t NumFrees = 0;
  uint64_t NumMoves = 0;
};

/// The simulated heap: object table + free-space index + statistics.
class Heap {
public:
  Heap() = default;
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

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
  const FreeSpaceIndex &freeSpace() const { return Free; }

  /// Live words occupying [Start, Start + Size). Inline: the compactors
  /// call this once per candidate chunk scan.
  uint64_t usedWordsIn(Addr Start, uint64_t Size) const {
    assert(Size != 0 && "empty query range");
    return Size - Free.freeWordsIn(Start, Start + Size);
  }

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
  /// index is exactly their complement, the start-bit index agrees, the
  /// statistics match a recount, and the free index's always-exact
  /// digests match its occupancy words. O(objects + committed words);
  /// meant for tests and the fuzzing oracle. When \p Why is non-null and
  /// the check fails, it receives a one-line diagnosis of the first
  /// inconsistency found.
  bool checkConsistency(std::string *Why = nullptr) const;

  /// Ids of all live objects, in address order. O(live objects).
  std::vector<ObjectId> liveObjects() const;

  /// Occupancy bitboard of the first \p Count (<= 64) words: bit i is set
  /// iff address i is covered by a live object. Canonicalization hook for
  /// the exact game solver (src/exact/), whose states are exactly such
  /// boards. For wider prefixes use occupancyWords.
  uint64_t occupancyMask(unsigned Count) const;

  /// Companion bitboard: bit i is set iff a live object starts at
  /// address i. Together with occupancyMask this determines the heap
  /// prefix's layout up to object identity.
  uint64_t objectStartMask(unsigned Count) const;

  /// Span generalization of occupancyMask: copies the occupancy of
  /// [Start, Start + 64 * Count) into \p Out as packed words (Out[i]
  /// bit j = address Start + 64 * i + j). O(Count + log objects); the
  /// exact solver's witness replays cross-check arbitrary arena widths
  /// through this.
  void occupancyWords(Addr Start, size_t Count, uint64_t *Out) const;

  /// Span generalization of objectStartMask, same layout as
  /// occupancyWords.
  void objectStartWords(Addr Start, size_t Count, uint64_t *Out) const;

  /// True if the occupancy of [A, A + Size) and [B, B + Size) never uses
  /// the same offset: for every i < Size, at most one of A + i and B + i
  /// is covered by a live object. This is the meshing probe — for
  /// 64-aligned ranges it is a word-AND per 64 addresses straight off the
  /// occupancy board, no per-cell work.
  bool occupancyDisjoint(Addr A, Addr B, uint64_t Size) const;

  /// Ids of live objects intersecting [Start, Start + Size), in address
  /// order. O(log live + matches).
  std::vector<ObjectId> liveObjectsIn(Addr Start, uint64_t Size) const;

  /// Id of the lowest-addressed live object starting at or above \p A, or
  /// InvalidObjectId when none exists. O(words scanned); lets compactors
  /// walk the heap in address order without snapshotting the whole live
  /// set.
  ObjectId firstLiveAt(Addr A) const;

private:
  /// Dense start-board ceiling: objects starting at or above it live in
  /// the sorted fallback map.
  static constexpr uint64_t DenseLimit = uint64_t(1) << 24;

  /// Records/erases the start bit (dense board or fallback map).
  void noteStart(Addr Address, ObjectId Id);
  void forgetStart(Addr Address);

  /// Id of the live object starting at \p Address (which must carry a
  /// start bit / map entry).
  ObjectId idStartingAt(Addr Address) const;

  /// Start address of the last live object starting strictly below
  /// \p Limit, or InvalidAddr.
  Addr lastStartBefore(Addr Limit) const;

  std::vector<Object> Objects;
  FreeSpaceIndex Free;
  /// Live object starts below DenseLimit: bit A set iff a live object
  /// starts at A, with IdAt[A] naming it (IdAt is meaningful only under
  /// set bits).
  PackedBitmap StartBits;
  std::vector<ObjectId> IdAt;
  /// Live objects starting at or above DenseLimit, ordered by address.
  std::map<Addr, ObjectId> HighObjects;
  HeapStats Stats;
  std::function<void(const HeapEvent &)> OnEvent;
};

} // namespace pcb

#endif // PCBOUND_HEAP_HEAP_H
