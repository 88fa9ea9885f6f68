//===- service/ServiceFleet.h - Multi-arena service fleet -------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer's top: N shared-nothing ArenaShards drained on the
/// experiment Runner's thread pool, plus the assembly of the
/// deterministic FleetReport from the drained shards.
///
/// \par Scheduling
/// Each shard is one Runner cell: a worker takes the next undrained
/// arena and drains it in one ArenaShard::runSlice call. A shard is held
/// by exactly one worker, so shard state needs no synchronization at
/// all; the Runner supplies the dynamic dispatch, the first-exception
/// rethrow and the per-worker profiler merge.
///
/// \par Determinism
/// A shard's execution is a pure function of its configuration (see
/// ArenaShard.h), so the drained fleet — and hence report() — is
/// byte-identical for every thread count and every order in which the
/// workers take the shards. Only wall-clock and Profiler timings vary;
/// those are exposed separately and printed to stderr by the CLI.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SERVICE_SERVICEFLEET_H
#define PCBOUND_SERVICE_SERVICEFLEET_H

#include "service/ArenaShard.h"
#include "service/FleetReport.h"

#include <functional>
#include <memory>
#include <vector>

namespace pcb {

class Profiler;

/// Configuration of one fleet run.
struct FleetOptions {
  /// Number of arena shards.
  unsigned NumArenas = 4;
  /// Total sessions, striped round-robin over arenas (session GlobalId g
  /// is served by arena g % NumArenas).
  uint64_t NumSessions = 1024;
  /// Worker threads; 0 means hardware concurrency. Clamped to
  /// [1, NumArenas] — more workers than arenas can never help.
  unsigned Threads = 0;
  /// Per-shard configuration (policy, c, session shape, batching, audit).
  ShardConfig Shard;
  /// When set, the shards run profiled and the section/counter totals
  /// are merged here after the run (RunnerOptions::Prof).
  Profiler *Prof = nullptr;
  /// Fault-injection port: forwarded to the named arena's shard as its
  /// EventTap (other arenas get none). Only meaningful with Shard.Audit.
  std::function<bool(unsigned Arena, HeapEvent &)> ArenaTap;
  /// Forwarded to FleetReport::ArenaRowLimit.
  unsigned ArenaRowLimit = 32;
};

/// Owns the shards, drains them on a Runner, assembles the report.
class ServiceFleet {
public:
  /// Builds every shard (throws std::runtime_error on a bad policy).
  explicit ServiceFleet(const FleetOptions &Opts);

  ServiceFleet(const ServiceFleet &) = delete;
  ServiceFleet &operator=(const ServiceFleet &) = delete;

  /// Drains every arena, one Runner cell per arena. Runs inline when one
  /// worker suffices. Rethrows the first shard exception after the
  /// workers finish. Call once.
  void run();

  /// The deterministic fleet report; valid after run().
  FleetReport report() const;

  unsigned numArenas() const { return unsigned(Shards.size()); }
  ArenaShard &shard(unsigned A) { return *Shards[A]; }
  const ArenaShard &shard(unsigned A) const { return *Shards[A]; }

  /// Wall-clock seconds of the last run() (nondeterministic; stderr only).
  double wallSeconds() const { return WallSecs; }
  /// Workers the last run() used (after the 0 = hardware and
  /// [1, NumArenas] clamps).
  unsigned threads() const { return UsedThreads; }

private:
  FleetOptions Opts;
  std::vector<std::unique_ptr<ArenaShard>> Shards;
  double WallSecs = 0.0;
  unsigned UsedThreads = 0;
};

} // namespace pcb

#endif // PCBOUND_SERVICE_SERVICEFLEET_H
