//===- adversary/Schedule.h - Allocation schedules --------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program side of the paper's HS(A, P): a fixed sequence of allocate
/// and free requests that any manager can be run against. One operation
/// type, MallocOp, carries it everywhere — fuzz schedules, fleet sessions,
/// recorded executions and the pcbtrace wire format (trace/TraceFormat.h).
///
/// A stream of MallocOps names objects by *id*. On the wire and in event
/// logs an id may be reused once it is freed. Vectors held in memory use
/// one stricter convention, **ordinal form**: the k-th Alloc has Id k, and
/// each Free names that id and carries the allocation's Size. Ordinal
/// form is closed under subsetting (drop the frees of dropped allocations
/// and renumber), and a free names its allocation's ordinal, so a
/// recorder writes it to the wire as is.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_ADVERSARY_SCHEDULE_H
#define PCBOUND_ADVERSARY_SCHEDULE_H

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace pcb {

/// One allocation-level schedule operation.
struct MallocOp {
  enum class Kind : uint8_t { Alloc, Free } Op = Kind::Alloc;
  /// Id of the object: its allocation ordinal in ordinal form, a
  /// reusable slot number on the wire.
  uint64_t Id = 0;
  /// Words allocated. Filled in for frees too, so consumers can account
  /// live volume without their own id map.
  uint64_t Size = 0;

  static MallocOp alloc(uint64_t Id, uint64_t Size) {
    return MallocOp{Kind::Alloc, Id, Size};
  }
  static MallocOp release(uint64_t Id, uint64_t Size) {
    return MallocOp{Kind::Free, Id, Size};
  }

  bool isAlloc() const { return Op == Kind::Alloc; }
  bool operator==(const MallocOp &) const = default;
};

/// The end-to-end benchmark package (perfbench/) still spells the
/// schedule type by its old name; it is kept frozen so that its results
/// stay comparable from one change of the library to the next.
using TraceOp = MallocOp;

/// Checks that \p Ops is an ordinal-form schedule: allocations are
/// nonzero and numbered 0, 1, 2, ... in order, and every free names an
/// earlier, still-live allocation with that allocation's size. Returns
/// the schedule's peak live words (the smallest live bound M it runs
/// under), or std::nullopt with a one-line diagnosis naming the first
/// offending operation in \p Why.
std::optional<uint64_t> checkSchedule(const std::vector<MallocOp> &Ops,
                                      std::string *Why = nullptr);

/// Renumbers a stream whose ids are reusable (pcbtrace ids, heap object
/// ids) into ordinal form, one operation at a time. A free must name an
/// id allocated earlier in the stream, and becomes the free of that id's
/// latest allocation, with the size that allocation had. Freeing it again
/// repeats that free, which checkSchedule reports as a double free.
class OrdinalRenumbering {
public:
  MallocOp operator()(const MallocOp &Op);

private:
  /// Stream id -> the ordinal-form free of its latest allocation.
  std::unordered_map<uint64_t, MallocOp> FreeOf;
  uint64_t NextOrdinal = 0;
};

} // namespace pcb

#endif // PCBOUND_ADVERSARY_SCHEDULE_H
