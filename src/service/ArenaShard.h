//===- service/ArenaShard.h - One shared-nothing fleet shard ----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One arena of the fleet: a private Heap / MemoryManager /
/// CompactionLedger stack (the Compact-fit per-thread-arena model), a
/// batched allocate/free request queue, and the session multiplexer that
/// drives both. Shards are shared-nothing — no two shards reference any
/// common mutable state — so any worker thread may drain a shard,
/// provided at most one thread runs it at once.
///
/// \par Execution model
/// Sessions assigned to the shard are admitted in global-id order into at
/// most MaxResident resident slots; resident sessions submit their next
/// operation round-robin into the arena's request queue, and the queue is
/// applied to the manager ("flushed") whenever it reaches BatchSize
/// requests — or earlier, when every resident operation is already queued
/// (starvation flush) or the arena drains. A session retires the moment
/// its last queued request is applied, which frees its slot for the next
/// admission after the flush completes.
///
/// \par Determinism
/// Everything above is a pure function of (shard config, session ids):
/// admission order, round-robin turns, batch boundaries, and therefore
/// every placement decision the manager makes. runSlice() only bounds how
/// much of that fixed schedule executes per call, so draining a shard in
/// one call or a flush at a time cannot change any observable outcome.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SERVICE_ARENASHARD_H
#define PCBOUND_SERVICE_ARENASHARD_H

#include "driver/EventLog.h"
#include "fuzz/InvariantOracle.h"
#include "mm/MemoryManager.h"
#include "obs/Timeline.h"
#include "service/SessionWorkload.h"
#include "trace/BudgetController.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pcb {

/// Configuration shared by every shard of a fleet.
struct ShardConfig {
  /// Manager policy each arena runs (any ManagerFactory name).
  std::string Policy = "evacuating";
  /// Compaction quota denominator handed to every arena's manager.
  double C = 50.0;
  /// Budget controller gating each arena's compaction spend. Every shard
  /// builds a private controller from this spec and observes it at flush
  /// granularity (Step = flush ordinal) — still a pure function of the
  /// shard config, so the fleet determinism contract is untouched. The
  /// default fixed trigger is byte-identical to an ungated arena.
  ControllerSpec Controller;
  /// Session shape (seed, ops, live bound, size cap).
  SessionParams Session;
  /// Requests applied per flush of the arena queue. 1 applies every
  /// request immediately; a value above the resident ops supply degrades
  /// to starvation flushes.
  uint64_t BatchSize = 16;
  /// Sessions multiplexed concurrently per arena.
  uint64_t MaxResident = 8;
  /// Record a timeline point every this-many retired sessions (plus an
  /// endpoint at drain); 0 disables per-arena timelines.
  uint64_t SampleEverySessions = 64;
  /// Record the event stream and run the fuzzer's InvariantOracle at
  /// every flush. Off by default: a million-session fleet's event log
  /// would dominate memory; tests and smoke runs turn it on.
  bool Audit = false;
  /// Oracle deep-check cadence, in flushes (with Audit).
  uint64_t DeepCheckEvery = 16;
  /// Cap on violations collected per arena.
  size_t MaxViolations = 16;
};

/// One shared-nothing arena shard; see the file comment for semantics.
class ArenaShard {
public:
  /// Fault-injection port (the fuzzer's LogTap contract): invoked for
  /// every heap event before it is recorded, may mutate the event,
  /// returns false to drop it. Only meaningful with Cfg.Audit.
  using EventTap = std::function<bool(HeapEvent &)>;

  /// Builds the shard for arena \p ArenaId serving \p NumSessions
  /// sessions whose global ids are FirstGlobalId + k * GlobalStride
  /// (round-robin striping over the fleet). Throws std::runtime_error on
  /// an unknown policy.
  ArenaShard(unsigned ArenaId, uint64_t NumSessions, uint64_t FirstGlobalId,
             uint64_t GlobalStride, const ShardConfig &Cfg,
             EventTap Tap = nullptr);

  ArenaShard(const ArenaShard &) = delete;
  ArenaShard &operator=(const ArenaShard &) = delete;

  /// Runs up to \p MaxFlushes flushes of the arena queue. Returns true
  /// when the arena has drained: every session retired and the queue
  /// empty. Not thread-safe; the caller guarantees one runner at a time.
  bool runSlice(uint64_t MaxFlushes);

  bool drained() const {
    return NextToAdmit == NumSessions && NumResident == 0 && Pending.empty();
  }

  unsigned arenaId() const { return Id; }
  uint64_t numSessions() const { return NumSessions; }
  uint64_t sessionsRetired() const { return Retired; }
  uint64_t flushes() const { return NumFlushes; }
  uint64_t opsApplied() const { return OpsApplied; }

  /// Maximum external fragmentation observed at any flush boundary (the
  /// drained endpoint is degenerate — everything freed — so the fleet's
  /// fragmentation percentiles are over these peaks).
  double peakFragmentation() const { return PeakFrag; }
  /// Mean utilization over flush boundaries (0 before the first flush).
  double meanUtilization() const {
    return NumFlushes != 0 ? UtilSum / double(NumFlushes) : 0.0;
  }

  const Heap &heap() const { return H; }
  const MemoryManager &manager() const { return *MM; }
  const BudgetController &controller() const { return *Ctrl; }
  const std::vector<Violation> &violations() const { return Violations; }
  const Timeline &timeline() const { return TL; }
  const EventLog &eventLog() const { return Log; }

private:
  struct Resident {
    bool Active = false;
    uint64_t GlobalId = 0;
    std::vector<MallocOp> Ops; ///< in ordinal form
    size_t Enqueued = 0; ///< ops submitted to the arena queue so far
    size_t Applied = 0;  ///< ops the flusher has executed so far
    std::vector<ObjectId> AllocIds; ///< indexed by MallocOp::Id
  };
  struct Request {
    uint32_t Slot;
    MallocOp Op;
  };

  /// Admits sessions (in global order) into free slots.
  void admit();
  /// Fills the request queue round-robin up to BatchSize or starvation.
  void fillBatch();
  /// Applies every pending request in order; retires finished sessions.
  void flush();
  /// Records a point when the retirement count hits the sample cadence.
  void sampleTimeline();
  /// Unconditionally appends the current heap state to the timeline.
  void recordTimelinePoint();

  unsigned Id;
  uint64_t NumSessions;
  uint64_t FirstGlobalId;
  uint64_t GlobalStride;
  ShardConfig Cfg;
  EventTap Tap;

  Heap H;
  std::unique_ptr<MemoryManager> MM;
  std::unique_ptr<BudgetController> Ctrl;
  EventLog Log;
  std::unique_ptr<InvariantOracle> Oracle;
  std::vector<Violation> Violations;
  Timeline TL;

  std::vector<Resident> Slots;
  std::vector<Request> Pending;
  uint64_t NextToAdmit = 0; ///< local session index, in [0, NumSessions]
  uint64_t NumResident = 0;
  size_t Cursor = 0; ///< round-robin position over Slots
  uint64_t Retired = 0;
  uint64_t NumFlushes = 0;
  uint64_t OpsApplied = 0;
  double PeakFrag = 0.0;
  double UtilSum = 0.0;
  bool FinalCheckDone = false;
};

} // namespace pcb

#endif // PCBOUND_SERVICE_ARENASHARD_H
