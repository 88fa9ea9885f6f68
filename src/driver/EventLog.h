//===- driver/EventLog.h - Recorded execution event stream ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An append-only log of HeapEvents recorded during an execution. The
/// log is an independent record — the auditors in driver/Auditors.h
/// replay it to re-derive the footprint, live volume and compaction
/// spend, cross-checking the heap's own statistics; and a log converts
/// into an ordinal-form schedule so any execution's allocation behaviour
/// can be re-run against a different manager.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_DRIVER_EVENTLOG_H
#define PCBOUND_DRIVER_EVENTLOG_H

#include "adversary/Schedule.h"
#include "heap/HeapEvent.h"

#include <cstdint>
#include <vector>

namespace pcb {

/// An append-only event log.
class EventLog {
public:
  void record(const HeapEvent &E) { Events.push_back(E); }

  const std::vector<HeapEvent> &events() const { return Events; }
  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  void clear() { Events.clear(); }

  /// The log's allocation/free sequence as an ordinal-form schedule that
  /// can be re-run against any manager (moves are dropped: they were the
  /// *manager's* decisions, not the program's).
  std::vector<MallocOp> toSchedule() const;

private:
  std::vector<HeapEvent> Events;
};

} // namespace pcb

#endif // PCBOUND_DRIVER_EVENTLOG_H
