//===- trace/TraceReader.h - Streaming malloc-trace parser ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming side of the malloc-trace format: next() yields one
/// validated MallocOp at a time, so a million-op trace flows through in
/// constant memory plus a window of the *currently live* trace ids (the
/// only state replay fundamentally needs — maxLiveWindow() exposes its
/// high-water mark so tests can assert the bound). The framing is sniffed
/// from the first byte: "PCBT" magic means binary, anything else is
/// parsed as the text header.
///
/// Validation mirrors driver/TraceIO: structural damage (bad header or
/// version, unknown tags, truncated records, trailing garbage) and
/// schedule damage (zero-size allocation, an allocation of 2^60 words or
/// more — the simulated address space — or one that would lift the live
/// words past the reader's live cap, allocating an id that is still live,
/// freeing an id that is not) all fail with a diagnostic naming the line
/// (text) or record ordinal (binary). After a failure next() returns
/// false forever and error() describes the damage.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TRACE_TRACEREADER_H
#define PCBOUND_TRACE_TRACEREADER_H

#include "heap/HeapTypes.h"
#include "trace/TraceFormat.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>

namespace pcb {

/// Streams one malloc trace out of an istream; see the file comment.
class TraceReader {
public:
  /// The stream must outlive the reader, and must have been opened in
  /// binary mode when it may hold the binary framing. \p LiveCap bounds
  /// the live words (a program's M); it is clamped to AddrLimit.
  explicit TraceReader(std::istream &IS, uint64_t LiveCap = AddrLimit)
      : IS(IS), LiveCap(LiveCap < AddrLimit ? LiveCap : AddrLimit) {}

  TraceReader(const TraceReader &) = delete;
  TraceReader &operator=(const TraceReader &) = delete;

  /// Yields the next operation. Returns false at end of trace *or* on a
  /// validation failure — check failed() to tell the two apart.
  bool next(MallocOp &Op);

  /// True once validation has failed; error() holds the diagnostic.
  bool failed() const { return Failed; }
  const std::string &error() const { return Error; }

  /// The framing the header announced (valid once next() was called).
  TraceFraming framing() const { return Framing; }

  /// Streaming statistics over the operations yielded so far.
  uint64_t opsRead() const { return NumAllocs + NumFrees; }
  uint64_t numAllocs() const { return NumAllocs; }
  uint64_t numFrees() const { return NumFrees; }
  uint64_t allocatedWords() const { return AllocWords; }
  uint64_t liveWords() const { return LiveWords; }
  uint64_t peakLiveWords() const { return PeakLiveWords; }

  /// The live-id window: ids allocated but not yet freed. Its high-water
  /// mark is the reader's only trace-size-dependent memory use.
  size_t liveWindow() const { return Live.size(); }
  size_t maxLiveWindow() const { return MaxLiveWindow; }

private:
  bool readHeader();
  bool nextText(MallocOp &Op);
  bool nextBinary(MallocOp &Op);
  bool readVarint(uint64_t &V);
  bool fail(const std::string &Reason);
  bool apply(MallocOp &Op);

  std::istream &IS;
  uint64_t LiveCap;
  TraceFraming Framing = TraceFraming::Text;
  bool HeaderRead = false;
  bool Failed = false;
  bool Done = false;
  std::string Error;

  std::unordered_map<uint64_t, uint64_t> Live; ///< live trace id -> words
  uint64_t LineNo = 0;   ///< text framing: current line
  uint64_t RecordNo = 0; ///< binary framing: current record ordinal
  uint64_t NumAllocs = 0;
  uint64_t NumFrees = 0;
  uint64_t AllocWords = 0;
  uint64_t LiveWords = 0;
  uint64_t PeakLiveWords = 0;
  size_t MaxLiveWindow = 0;
};

} // namespace pcb

#endif // PCBOUND_TRACE_TRACEREADER_H
