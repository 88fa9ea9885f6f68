//===- trace/TraceFormat.h - The malloc-trace wire format -------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The malloc-trace format: a versioned header followed by a flat stream
/// of allocation-level operations, in the style of the classic
/// malloc/free test-suite logs. Two framings carry the same records:
///
///   text    `pcbtrace 1 text` header, then one record per line —
///           `a <id> <size>` allocates <size> words under trace id <id>,
///           `f <id>` frees it. `#` comments and blank lines are skipped.
///
///   binary  magic "PCBT" + a version byte, then tagged records: a tag
///           byte (1 = alloc, 2 = free) followed by ULEB128-encoded id
///           (and size, for allocs). Roughly 3-6 bytes per op, so a
///           million-op trace is a few megabytes.
///
/// Trace ids name *allocations*, not addresses: an id may be reused after
/// it is freed (real malloc logs recycle slot numbers). Placement is the
/// manager's business; a trace records only the program's schedule, which
/// is what makes one trace replayable under every policy and budget
/// controller.
///
/// TraceWriter emits either framing behind one call surface; the
/// streaming parser lives in trace/TraceReader.h.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TRACE_TRACEFORMAT_H
#define PCBOUND_TRACE_TRACEFORMAT_H

#include "adversary/Schedule.h"

#include <cstdint>
#include <iosfwd>
#include <string>

namespace pcb {

/// The two encodings of the format.
enum class TraceFraming : uint8_t { Text, Binary };

/// "text" or "binary".
std::string framingName(TraceFraming F);

/// Parses a framing name; returns false on an unknown name.
bool parseFraming(const std::string &Name, TraceFraming &F);

/// The format version this build reads and writes.
inline constexpr unsigned TraceFormatVersion = 1;

/// Serializes a malloc trace in either framing. The header is written by
/// the constructor; records append in call order. The caller owns the
/// stream (and must have opened it in binary mode for the binary framing).
class TraceWriter {
public:
  TraceWriter(std::ostream &OS, TraceFraming F);

  void alloc(uint64_t Id, uint64_t Size);
  void free(uint64_t Id);
  void record(const MallocOp &Op);

  /// Comment line; records nothing in the binary framing.
  void comment(const std::string &Text);

  TraceFraming framing() const { return Framing; }
  uint64_t opsWritten() const { return Ops; }

  /// True while every write has succeeded at the stream level.
  bool good() const;

private:
  void putVarint(uint64_t V);

  std::ostream &OS;
  TraceFraming Framing;
  uint64_t Ops = 0;
};

} // namespace pcb

#endif // PCBOUND_TRACE_TRACEFORMAT_H
