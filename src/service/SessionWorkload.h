//===- service/SessionWorkload.h - Lightweight mutator sessions -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session generation for the fleet simulator. A session is one
/// lightweight mutator: a short allocate/free trace produced by the
/// fuzzer's workload patterns (src/fuzz/WorkloadFuzzer.h), identified
/// fleet-wide by a single global id. Everything about a session — its
/// seed, its pattern, its operation list — is a pure function of
/// (fleet seed, global id) via splitSeed, the same discipline the
/// experiment runner uses for grid cells: schedules never depend on which
/// arena slot, batch, thread, or steal served them, which is what makes
/// the fleet report reproducible at any thread count.
///
/// Sessions are generated lazily (a few hundred bytes of MallocOps when
/// admitted, freed at retirement), so a fleet can hold millions of
/// pending sessions while only MaxResident-per-arena are materialized.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SERVICE_SESSIONWORKLOAD_H
#define PCBOUND_SERVICE_SESSIONWORKLOAD_H

#include "fuzz/WorkloadFuzzer.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace pcb {

/// Shape parameters shared by every session of a fleet.
struct SessionParams {
  /// Seed of the whole fleet; per-session seeds are split from it.
  uint64_t FleetSeed = 1;
  /// Target operations per session (the fuzzer approximates it).
  uint64_t TargetOps = 48;
  /// Cap on one session's simultaneous live words. An arena's live
  /// volume is then bounded by MaxResident * LiveBound.
  uint64_t LiveBound = uint64_t(1) << 10;
  /// Largest object a session allocates: 2^MaxLogSize words.
  unsigned MaxLogSize = 6;
  /// Trace-backed fleets: when set, every session replays this recorded
  /// malloc trace (one trace = one session class) instead of a
  /// synthesized fuzz schedule; teardown frees are still appended. The
  /// caller must raise LiveBound to at least the trace's peak live
  /// volume. Shared: a production-sized trace is materialized once per
  /// fleet, not once per session.
  std::shared_ptr<const std::vector<MallocOp>> Trace;
};

/// The seed of session \p GlobalId: splitSeed(FleetSeed, GlobalId).
/// Depends only on its arguments, never on scheduling.
uint64_t sessionSeed(uint64_t FleetSeed, uint64_t GlobalId);

/// The workload pattern of session \p GlobalId: cycles through the
/// fuzzer's direct patterns (uniform, bimodal, stack-LIFO, queue-FIFO,
/// fragmentation comb) so neighbouring sessions stress an arena
/// differently.
WorkloadFuzzer::Pattern sessionPattern(uint64_t GlobalId);

/// Materializes session \p GlobalId's full operation list: the fuzzer
/// schedule for (sessionSeed, sessionPattern), with teardown frees
/// appended for every allocation the schedule leaves live — sessions
/// release all their memory when they retire, so a draining fleet's live
/// volume stays bounded by the resident sessions alone. The list is in
/// ordinal form (adversary/Schedule.h), numbered per session.
std::vector<MallocOp> generateSessionTrace(const SessionParams &P,
                                           uint64_t GlobalId);

} // namespace pcb

#endif // PCBOUND_SERVICE_SESSIONWORKLOAD_H
