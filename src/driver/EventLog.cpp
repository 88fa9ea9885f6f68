//===- driver/EventLog.cpp - Typed execution event stream ----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/EventLog.h"

using namespace pcb;

std::vector<MallocOp> EventLog::toSchedule() const {
  std::vector<MallocOp> Ops;
  OrdinalRenumbering Renumber;
  for (const HeapEvent &E : Events) {
    switch (E.Event) {
    case HeapEvent::Kind::Alloc:
      Ops.push_back(Renumber(MallocOp::alloc(E.Id, E.Size)));
      break;
    case HeapEvent::Kind::Free:
      Ops.push_back(Renumber(MallocOp::release(E.Id, E.Size)));
      break;
    case HeapEvent::Kind::Move:
    case HeapEvent::Kind::StepEnd:
      break; // manager decisions / markers: not program behaviour
    }
  }
  return Ops;
}
