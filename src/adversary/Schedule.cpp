//===- adversary/Schedule.cpp - Allocation schedules ---------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/Schedule.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

std::optional<uint64_t> pcb::checkSchedule(const std::vector<MallocOp> &Ops,
                                           std::string *Why) {
  auto Fail = [&](size_t Pos, const std::string &Reason) {
    if (Why)
      *Why = "op " + std::to_string(Pos) + ": " + Reason;
    return std::nullopt;
  };
  // Size of each allocation while it is live, 0 once freed.
  std::vector<uint64_t> LiveSize;
  uint64_t Live = 0;
  uint64_t Peak = 0;
  for (size_t Pos = 0; Pos != Ops.size(); ++Pos) {
    const MallocOp &Op = Ops[Pos];
    auto Name = [&] { return "allocation " + std::to_string(Op.Id); };
    if (Op.isAlloc()) {
      if (Op.Size == 0)
        return Fail(Pos, "zero-size allocation");
      if (Op.Id != LiveSize.size())
        return Fail(Pos, Name() + " out of order (expected " +
                             std::to_string(LiveSize.size()) + ")");
      LiveSize.push_back(Op.Size);
      Live += Op.Size;
      Peak = std::max(Peak, Live);
      continue;
    }
    if (Op.Id >= LiveSize.size())
      return Fail(Pos, "frees " + Name() + " which has not happened yet");
    uint64_t &Size = LiveSize[size_t(Op.Id)];
    if (Size == 0)
      return Fail(Pos, "frees " + Name() + " twice");
    if (Op.Size != Size)
      return Fail(Pos, "frees " + Name() + " as " + std::to_string(Op.Size) +
                           " words, not " + std::to_string(Size));
    Live -= Size;
    Size = 0;
  }
  return Peak;
}

MallocOp OrdinalRenumbering::operator()(const MallocOp &Op) {
  if (Op.isAlloc()) {
    FreeOf[Op.Id] = MallocOp::release(NextOrdinal, Op.Size);
    return MallocOp::alloc(NextOrdinal++, Op.Size);
  }
  auto It = FreeOf.find(Op.Id);
  assert(It != FreeOf.end() && "stream frees an id it never allocated");
  return It->second;
}
