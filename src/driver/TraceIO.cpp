//===- driver/TraceIO.cpp - Text serialization of event logs -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/TraceIO.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

using namespace pcb;

void pcb::writeEventLog(std::ostream &OS, const EventLog &Log) {
  for (const HeapEvent &E : Log.events()) {
    switch (E.Event) {
    case HeapEvent::Kind::Alloc:
      OS << "A " << E.Id << ' ' << E.Address << ' ' << E.Size << '\n';
      break;
    case HeapEvent::Kind::Free:
      OS << "F " << E.Id << ' ' << E.Address << ' ' << E.Size << '\n';
      break;
    case HeapEvent::Kind::Move:
      OS << "M " << E.Id << ' ' << E.From << ' ' << E.Address << ' '
         << E.Size << '\n';
      break;
    case HeapEvent::Kind::StepEnd:
      OS << "S\n";
      break;
    }
  }
}

bool pcb::readEventLog(std::istream &IS, EventLog &Log,
                       std::string *Error) {
  Log.clear();
  uint64_t LineNo = 0;
  auto Fail = [&](const std::string &Reason) {
    if (Error)
      *Error = "line " + std::to_string(LineNo) + ": " + Reason;
    Log.clear();
    return false;
  };
  // The heap model asserts these, so a record violating them is a
  // domain error here: every object has a size in [1, AddrLimit) and
  // lies entirely inside the 2^60-word address space.
  auto BadRange = [](const char *Record, Addr A, uint64_t Size) {
    std::string Where = std::string(Record) + " record";
    if (Size == 0)
      return Where + " of zero words";
    if (Size >= AddrLimit)
      return Where + " of " + std::to_string(Size) +
             " words does not fit the 2^60-word address space";
    if (A > AddrLimit - Size)
      return Where + " of " + std::to_string(Size) + " words at address " +
             std::to_string(A) + " ends past the 2^60-word address space";
    return std::string();
  };
  // Frees and moves must name an object an earlier record allocated:
  // there is no other way to know what they release.
  std::unordered_set<ObjectId> Allocated;
  auto Unallocated = [](const char *Record, ObjectId Id) {
    return std::string(Record) + " record names id " + std::to_string(Id) +
           ", which no earlier allocation record created";
  };
  std::string Line;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    char Tag = 0;
    LS >> Tag;
    ObjectId Id;
    Addr A, B;
    uint64_t Size;
    std::string Bad;
    switch (Tag) {
    case 'A':
      if (!(LS >> Id >> A >> Size))
        return Fail("truncated or malformed allocation record");
      if (!(Bad = BadRange("allocation", A, Size)).empty())
        return Fail(Bad);
      Allocated.insert(Id);
      Log.record(HeapEvent::alloc(Id, A, Size));
      break;
    case 'F':
      if (!(LS >> Id >> A >> Size))
        return Fail("truncated or malformed free record");
      if (!(Bad = BadRange("free", A, Size)).empty())
        return Fail(Bad);
      if (!Allocated.count(Id))
        return Fail(Unallocated("free", Id));
      Log.record(HeapEvent::release(Id, A, Size));
      break;
    case 'M':
      if (!(LS >> Id >> A >> B >> Size))
        return Fail("truncated or malformed move record");
      if (!(Bad = BadRange("move", A, Size)).empty() ||
          !(Bad = BadRange("move", B, Size)).empty())
        return Fail(Bad);
      if (!Allocated.count(Id))
        return Fail(Unallocated("move", Id));
      Log.record(HeapEvent::move(Id, A, B, Size));
      break;
    case 'S':
      Log.record(HeapEvent::stepEnd());
      break;
    default:
      return Fail(std::string("unknown record type '") + Tag + "'");
    }
    // Trailing garbage on a line is a parse error too.
    std::string Rest;
    if (LS >> Rest)
      return Fail("trailing characters '" + Rest + "'");
  }
  return true;
}
