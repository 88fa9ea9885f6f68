//===- trace/TraceRecorder.h - Capturing runs as traces ---------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Captures any run of the stack as a malloc trace. Two sources:
///
///   heapTap()  an adapter for Heap::setEventCallback — every Alloc/Free
///              heap event becomes a trace record keyed by its heap
///              ObjectId (dense, never reused, so the trace is trivially
///              well-formed). Moves are dropped: compaction does not
///              change the program's allocation schedule, which is the
///              whole point of replaying one trace under many policies
///              and controllers. This records adversaries, synthetic
///              programs, and whole fleet runs at production sizes.
///
///   record()   writes an ordinal-form schedule (adversary/Schedule.h),
///              as fuzz schedules and fleet sessions hold it: its ids are
///              allocation ordinals, which are valid trace ids as they
///              stand.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TRACE_TRACERECORDER_H
#define PCBOUND_TRACE_TRACERECORDER_H

#include "heap/HeapEvent.h"
#include "trace/TraceFormat.h"

#include <functional>
#include <vector>

namespace pcb {

/// Writes a malloc trace from live runs; see the file comment.
class TraceRecorder {
public:
  TraceRecorder(std::ostream &OS, TraceFraming F) : W(OS, F) {}

  /// Records a whole ordinal-form schedule.
  void record(const std::vector<MallocOp> &Ops);

  /// The Heap::setEventCallback adapter. The recorder must outlive the
  /// callback's installation.
  std::function<void(const HeapEvent &)> heapTap();

  TraceWriter &writer() { return W; }
  uint64_t opsWritten() const { return W.opsWritten(); }
  bool good() const { return W.good(); }

private:
  TraceWriter W;
};

} // namespace pcb

#endif // PCBOUND_TRACE_TRACERECORDER_H
