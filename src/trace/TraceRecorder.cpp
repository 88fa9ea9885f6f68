//===- trace/TraceRecorder.cpp - Capturing runs as traces ----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceRecorder.h"

using namespace pcb;

void TraceRecorder::record(const std::vector<MallocOp> &Ops) {
  for (const MallocOp &Op : Ops)
    W.record(Op);
}

std::function<void(const HeapEvent &)> TraceRecorder::heapTap() {
  return [this](const HeapEvent &E) {
    switch (E.Event) {
    case HeapEvent::Kind::Alloc:
      W.alloc(E.Id, E.Size);
      break;
    case HeapEvent::Kind::Free:
      W.free(E.Id);
      break;
    case HeapEvent::Kind::Move:
    case HeapEvent::Kind::StepEnd:
      break;
    }
  };
}
